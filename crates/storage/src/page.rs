//! Fixed-size pages and the slotted-page record layout.
//!
//! Every on-disk structure (heap files, the catalog chain) is
//! built from [`PAGE_SIZE`]-byte pages. Record-bearing pages use a slotted
//! layout: a slot directory grows downward from the header while record
//! bodies grow upward from the end of the page, so variable-length records
//! can be added, removed, and compacted without moving their slot ids.
//!
//! Page layout:
//!
//! ```text
//! offset  size  field
//! 0       1     page type (PageType)
//! 1       8     next page id (0 = none; page 0 is the catalog root and is
//!               never a successor, so 0 can serve as the null link)
//! 9       2     slot count
//! 11      2     free-space pointer (offset of the first byte used by
//!               record bodies; bodies occupy [free_ptr, PAGE_SIZE))
//! 13      4*n   slot directory: (offset: u16, len: u16) per slot;
//!               offset 0 marks an empty (tombstoned) slot
//! ```

/// Size in bytes of every page.
pub const PAGE_SIZE: usize = 8192;

/// Byte offset where the slot directory begins.
pub const HEADER_SIZE: usize = 13;

/// Size of one slot directory entry.
pub const SLOT_SIZE: usize = 4;

/// The largest record body a single page can hold (one slot, empty page).
pub const MAX_RECORD_SIZE: usize = PAGE_SIZE - HEADER_SIZE - SLOT_SIZE;

/// Identifies a page within the database file.
pub type PageId = u64;

/// The distinguished "no page" link value.
pub const NO_PAGE: PageId = 0;

/// Discriminates how a page's body is interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum PageType {
    /// Unallocated / freed page.
    Free = 0,
    /// Heap-file data page.
    Heap = 1,
    /// Catalog chain page.
    Catalog = 4,
}

impl PageType {
    /// Decodes a page-type byte, defaulting unknown values to `Free`.
    pub fn from_u8(b: u8) -> PageType {
        match b {
            1 => PageType::Heap,
            4 => PageType::Catalog,
            _ => PageType::Free,
        }
    }
}

/// A record's location: page id plus slot index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rid {
    /// The page holding the record.
    pub page: PageId,
    /// The slot within the page.
    pub slot: u16,
}

impl Rid {
    /// Creates a record id.
    pub fn new(page: PageId, slot: u16) -> Rid {
        Rid { page, slot }
    }

    /// Packs the rid into a u64 (page in the high 48 bits, slot in the
    /// low 16).
    pub fn to_u64(self) -> u64 {
        (self.page << 16) | self.slot as u64
    }

    /// Unpacks a rid previously packed with [`Rid::to_u64`].
    pub fn from_u64(v: u64) -> Rid {
        Rid {
            page: v >> 16,
            slot: (v & 0xFFFF) as u16,
        }
    }
}

impl std::fmt::Display for Rid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.page, self.slot)
    }
}

/// A zeroed page buffer, freshly formatted as the given type.
pub fn format_page(data: &mut [u8], ty: PageType) {
    data.fill(0);
    data[0] = ty as u8;
    set_next_page(data, NO_PAGE);
    set_slot_count(data, 0);
    set_free_ptr(data, PAGE_SIZE as u16);
}

/// Reads the page type byte.
pub fn page_type(data: &[u8]) -> PageType {
    PageType::from_u8(data[0])
}

/// Reads the next-page link.
pub fn next_page(data: &[u8]) -> PageId {
    u64::from_le_bytes(data[1..9].try_into().unwrap())
}

/// Writes the next-page link.
pub fn set_next_page(data: &mut [u8], next: PageId) {
    data[1..9].copy_from_slice(&next.to_le_bytes());
}

/// Reads the slot count.
pub fn slot_count(data: &[u8]) -> u16 {
    u16::from_le_bytes(data[9..11].try_into().unwrap())
}

fn set_slot_count(data: &mut [u8], n: u16) {
    data[9..11].copy_from_slice(&n.to_le_bytes());
}

fn free_ptr(data: &[u8]) -> u16 {
    // Clamped: a torn or garbage page can hold anything here, and every
    // consumer treats the value as an offset into the page.
    u16::from_le_bytes(data[11..13].try_into().unwrap()).min(PAGE_SIZE as u16)
}

fn set_free_ptr(data: &mut [u8], p: u16) {
    data[11..13].copy_from_slice(&p.to_le_bytes());
}

fn slot_at(data: &[u8], slot: u16) -> (u16, u16) {
    let base = HEADER_SIZE + slot as usize * SLOT_SIZE;
    match data.get(base..base + 4) {
        Some(b) => (
            u16::from_le_bytes(b[0..2].try_into().unwrap()),
            u16::from_le_bytes(b[2..4].try_into().unwrap()),
        ),
        // A garbage slot count can claim more entries than fit in the
        // page; out-of-page entries read as tombstones.
        None => (0, 0),
    }
}

fn set_slot_at(data: &mut [u8], slot: u16, off: u16, len: u16) {
    let base = HEADER_SIZE + slot as usize * SLOT_SIZE;
    if let Some(b) = data.get_mut(base..base + 4) {
        b[0..2].copy_from_slice(&off.to_le_bytes());
        b[2..4].copy_from_slice(&len.to_le_bytes());
    }
}

/// The byte range of an occupied slot's body, or `None` for tombstones
/// and slots whose recorded range does not lie within the page (torn or
/// garbage data — never trusted).
fn slot_range(data: &[u8], slot: u16) -> Option<std::ops::Range<usize>> {
    let (off, len) = slot_at(data, slot);
    if off == 0 {
        return None;
    }
    let start = off as usize;
    let end = start.checked_add(len as usize)?;
    (start >= HEADER_SIZE && end <= data.len()).then_some(start..end)
}

/// Bytes of free space available for a new record (including its slot entry,
/// assuming a new slot must be added).
pub fn free_space(data: &[u8]) -> usize {
    let dir_end = HEADER_SIZE + slot_count(data) as usize * SLOT_SIZE;
    let fp = free_ptr(data) as usize;
    fp.saturating_sub(dir_end)
}

/// True if a record of `len` bytes can be inserted (possibly after
/// compaction).
pub fn can_fit(data: &[u8], len: usize) -> bool {
    // A tombstoned slot can be reused without growing the directory.
    let reuse = (0..slot_count(data)).any(|s| slot_at(data, s).0 == 0);
    let need = len + if reuse { 0 } else { SLOT_SIZE };
    total_free(data) >= need
}

/// Total reclaimable free space: the gap plus fragmented dead space.
/// Saturating throughout — a garbage page reports zero free space
/// rather than wrapping.
fn total_free(data: &[u8]) -> usize {
    let live: usize = (0..slot_count(data))
        .filter_map(|s| slot_range(data, s).map(|r| r.len()))
        .sum();
    let dir_end = HEADER_SIZE + slot_count(data) as usize * SLOT_SIZE;
    PAGE_SIZE.saturating_sub(dir_end).saturating_sub(live)
}

/// Rewrites the record bodies contiguously at the end of the page,
/// reclaiming fragmentation. Slot ids are preserved. Slots whose
/// recorded ranges are invalid (torn/garbage pages) are tombstoned; if
/// overlapping garbage claims more bytes than a page holds, the excess
/// records are dropped rather than clobbering the header.
pub fn compact(data: &mut [u8]) {
    let n = slot_count(data);
    let mut records: Vec<(u16, Vec<u8>)> = Vec::with_capacity(n as usize);
    for s in 0..n {
        match slot_range(data, s) {
            Some(r) => records.push((s, data[r].to_vec())),
            None => {
                if slot_at(data, s).0 != 0 {
                    set_slot_at(data, s, 0, 0);
                }
            }
        }
    }
    let mut fp = PAGE_SIZE;
    for (s, body) in records {
        match fp.checked_sub(body.len()) {
            Some(nfp) if nfp >= HEADER_SIZE => {
                fp = nfp;
                data[fp..fp + body.len()].copy_from_slice(&body);
                set_slot_at(data, s, fp as u16, body.len() as u16);
            }
            _ => set_slot_at(data, s, 0, 0),
        }
    }
    set_free_ptr(data, fp as u16);
}

/// Inserts a record body, returning the slot index used. Returns `None` if
/// the page cannot hold the record even after compaction.
pub fn insert_record(data: &mut [u8], body: &[u8]) -> Option<u16> {
    if body.len() > MAX_RECORD_SIZE || !can_fit(data, body.len()) {
        return None;
    }
    let slot = match (0..slot_count(data)).find(|&s| slot_at(data, s).0 == 0) {
        Some(s) => s,
        None => {
            let n = slot_count(data);
            if HEADER_SIZE + (n as usize + 1) * SLOT_SIZE > PAGE_SIZE {
                return None; // garbage slot count: no room for a new entry
            }
            // Growing the directory must not clobber a record body that
            // sits just past it: compact first if the new entry would
            // cross the free pointer (can_fit guarantees room exists).
            if HEADER_SIZE + (n as usize + 1) * SLOT_SIZE > free_ptr(data) as usize {
                compact(data);
            }
            set_slot_count(data, n + 1);
            set_slot_at(data, n, 0, 0);
            n
        }
    };
    place_record(data, slot, body).then_some(slot)
}

/// Inserts a record body at a *specific* slot index, extending the slot
/// directory with tombstones as necessary. Used by recovery redo so that
/// record ids replay identically. Any existing record at the slot is
/// replaced. Returns `false` if the page cannot hold the record.
pub fn insert_record_at(data: &mut [u8], slot: u16, body: &[u8]) -> bool {
    if body.len() > MAX_RECORD_SIZE {
        return false;
    }
    while slot_count(data) <= slot {
        let n = slot_count(data);
        if HEADER_SIZE + (n as usize + 1) * SLOT_SIZE > PAGE_SIZE {
            return false;
        }
        if HEADER_SIZE + (n as usize + 1) * SLOT_SIZE > free_ptr(data) as usize {
            compact(data);
            if HEADER_SIZE + (n as usize + 1) * SLOT_SIZE > free_ptr(data) as usize {
                return false;
            }
        }
        set_slot_count(data, n + 1);
        set_slot_at(data, n, 0, 0);
    }
    // Clear any existing occupant, then verify space.
    let (off, _) = slot_at(data, slot);
    if off != 0 {
        set_slot_at(data, slot, 0, 0);
    }
    if total_free(data) < body.len() {
        return false;
    }
    place_record(data, slot, body)
}

/// Writes `body` into `slot`, compacting first if the contiguous gap is too
/// small. The slot must currently be a tombstone. Returns `false` when even
/// compaction cannot make room — possible only on garbage pages, since
/// callers verify `total_free` first.
fn place_record(data: &mut [u8], slot: u16, body: &[u8]) -> bool {
    let dir_end = HEADER_SIZE + slot_count(data) as usize * SLOT_SIZE;
    // The directory may have just grown past the free pointer when the
    // contiguous gap was smaller than one slot entry; saturate, and let
    // compaction re-establish free_ptr ≥ dir_end (guaranteed by the
    // caller's total-free check).
    let gap = (free_ptr(data) as usize).saturating_sub(dir_end);
    if gap < body.len() || (free_ptr(data) as usize) < dir_end {
        compact(data);
    }
    let dir_end = HEADER_SIZE + slot_count(data) as usize * SLOT_SIZE;
    let fp = match (free_ptr(data) as usize).checked_sub(body.len()) {
        Some(fp) if fp >= dir_end => fp,
        _ => return false,
    };
    data[fp..fp + body.len()].copy_from_slice(body);
    set_free_ptr(data, fp as u16);
    set_slot_at(data, slot, fp as u16, body.len() as u16);
    true
}

/// Reads the record at `slot`, if present. Slots whose recorded range
/// falls outside the page (torn/garbage data) read as absent.
pub fn get_record(data: &[u8], slot: u16) -> Option<&[u8]> {
    if slot >= slot_count(data) {
        return None;
    }
    slot_range(data, slot).map(|r| &data[r])
}

/// Removes the record at `slot`. Returns `true` if a record was present.
pub fn delete_record(data: &mut [u8], slot: u16) -> bool {
    if slot >= slot_count(data) {
        return false;
    }
    let (off, _) = slot_at(data, slot);
    if off == 0 {
        return false;
    }
    set_slot_at(data, slot, 0, 0);
    // Trim trailing tombstones so the directory can shrink.
    let mut n = slot_count(data);
    while n > 0 && slot_at(data, n - 1).0 == 0 {
        n -= 1;
    }
    set_slot_count(data, n);
    true
}

/// Replaces the record at `slot` with a new body. Returns `false` if the
/// slot is empty or the new body does not fit.
pub fn update_record(data: &mut [u8], slot: u16, body: &[u8]) -> bool {
    if slot >= slot_count(data) || body.len() > MAX_RECORD_SIZE {
        return false;
    }
    let Some(range) = slot_range(data, slot) else {
        return false; // tombstone, or a garbage range we must not touch
    };
    let (off, len) = slot_at(data, slot);
    if body.len() <= range.len() {
        // Shrink in place; the tail of the old body becomes dead space.
        data[range.start..range.start + body.len()].copy_from_slice(body);
        set_slot_at(data, slot, range.start as u16, body.len() as u16);
        return true;
    }
    // Grow: tombstone then re-place, checking reclaimable space.
    set_slot_at(data, slot, 0, 0);
    if total_free(data) < body.len() {
        set_slot_at(data, slot, off, len); // restore
        return false;
    }
    place_record(data, slot, body)
}

/// Iterates over the occupied slots of a page.
pub fn occupied_slots(data: &[u8]) -> impl Iterator<Item = u16> + '_ {
    (0..slot_count(data)).filter(move |&s| slot_at(data, s).0 != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Vec<u8> {
        let mut d = vec![0u8; PAGE_SIZE];
        format_page(&mut d, PageType::Heap);
        d
    }

    #[test]
    fn format_and_type() {
        let d = fresh();
        assert_eq!(page_type(&d), PageType::Heap);
        assert_eq!(slot_count(&d), 0);
        assert_eq!(next_page(&d), NO_PAGE);
        assert_eq!(free_space(&d), PAGE_SIZE - HEADER_SIZE);
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut d = fresh();
        let s = insert_record(&mut d, b"hello").unwrap();
        assert_eq!(get_record(&d, s), Some(&b"hello"[..]));
    }

    #[test]
    fn insert_many_distinct_slots() {
        let mut d = fresh();
        let slots: Vec<u16> = (0..100)
            .map(|i| insert_record(&mut d, format!("record-{i}").as_bytes()).unwrap())
            .collect();
        for (i, s) in slots.iter().enumerate() {
            assert_eq!(
                get_record(&d, *s).unwrap(),
                format!("record-{i}").as_bytes()
            );
        }
    }

    #[test]
    fn delete_frees_slot_for_reuse() {
        let mut d = fresh();
        let a = insert_record(&mut d, b"aaa").unwrap();
        let _b = insert_record(&mut d, b"bbb").unwrap();
        assert!(delete_record(&mut d, a));
        assert_eq!(get_record(&d, a), None);
        let c = insert_record(&mut d, b"ccc").unwrap();
        assert_eq!(c, a, "tombstoned slot should be reused");
    }

    #[test]
    fn delete_trailing_shrinks_directory() {
        let mut d = fresh();
        let a = insert_record(&mut d, b"aaa").unwrap();
        let b = insert_record(&mut d, b"bbb").unwrap();
        assert!(delete_record(&mut d, b));
        assert_eq!(slot_count(&d), 1);
        assert!(delete_record(&mut d, a));
        assert_eq!(slot_count(&d), 0);
    }

    #[test]
    fn update_shrink_and_grow() {
        let mut d = fresh();
        let s = insert_record(&mut d, b"a longer record body").unwrap();
        assert!(update_record(&mut d, s, b"tiny"));
        assert_eq!(get_record(&d, s), Some(&b"tiny"[..]));
        assert!(update_record(&mut d, s, b"now much longer than before!"));
        assert_eq!(
            get_record(&d, s),
            Some(&b"now much longer than before!"[..])
        );
    }

    #[test]
    fn fills_up_and_rejects() {
        let mut d = fresh();
        let body = vec![7u8; 1000];
        let mut n = 0;
        while insert_record(&mut d, &body).is_some() {
            n += 1;
        }
        assert!(n >= 7, "should fit at least 7 kB of records, fit {n}");
        assert!(!can_fit(&d, 1000));
        assert!(can_fit(&d, 8)); // small records still fit
    }

    #[test]
    fn compaction_reclaims_dead_space() {
        let mut d = fresh();
        // Fill with 1000-byte records, delete every other, then insert a
        // large record that only fits after compaction.
        let body = vec![7u8; 1000];
        let mut slots = vec![];
        while let Some(s) = insert_record(&mut d, &body) {
            slots.push(s);
        }
        for s in slots.iter().step_by(2) {
            delete_record(&mut d, *s);
        }
        let big = vec![9u8; 2500];
        let s = insert_record(&mut d, &big).expect("fits after compaction");
        assert_eq!(get_record(&d, s).unwrap(), &big[..]);
        // Survivors intact.
        for s in slots.iter().skip(1).step_by(2) {
            assert_eq!(get_record(&d, *s), Some(&body[..]));
        }
    }

    #[test]
    fn insert_at_specific_slot() {
        let mut d = fresh();
        assert!(insert_record_at(&mut d, 5, b"redo"));
        assert_eq!(slot_count(&d), 6);
        assert_eq!(get_record(&d, 5), Some(&b"redo"[..]));
        for s in 0..5 {
            assert_eq!(get_record(&d, s), None);
        }
        // Idempotent re-apply.
        assert!(insert_record_at(&mut d, 5, b"redo"));
        assert_eq!(get_record(&d, 5), Some(&b"redo"[..]));
    }

    #[test]
    fn record_too_large_rejected() {
        let mut d = fresh();
        assert!(insert_record(&mut d, &vec![0u8; MAX_RECORD_SIZE + 1]).is_none());
        assert!(insert_record(&mut d, &vec![0u8; MAX_RECORD_SIZE]).is_some());
    }

    #[test]
    fn rid_packing_roundtrip() {
        let r = Rid::new(0x1234_5678_9ABC, 0xDEF0);
        assert_eq!(Rid::from_u64(r.to_u64()), r);
    }

    #[test]
    fn garbage_pages_never_panic() {
        // Torn writes can hand recovery a page of arbitrary bytes. Every
        // page operation must stay total over them: garbage reads as
        // absent records, garbage mutations are rejected — never a panic.
        let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for round in 0..64 {
            let mut d = vec![0u8; PAGE_SIZE];
            match round % 4 {
                0 => d.chunks_mut(8).for_each(|c| {
                    let b = next().to_le_bytes();
                    c.copy_from_slice(&b[..c.len()]);
                }),
                1 => d.fill(0xFF),
                2 => {
                    // Valid page with its header bytes then scrambled.
                    format_page(&mut d, PageType::Heap);
                    insert_record(&mut d, b"victim record").unwrap();
                    let k = (next() % 13) as usize;
                    d[k] = next() as u8;
                }
                _ => {
                    // Valid page with a torn tail of zeroes.
                    format_page(&mut d, PageType::Heap);
                    for i in 0..20 {
                        insert_record(&mut d, format!("rec-{i}-{round}").as_bytes());
                    }
                    let cut = (next() % PAGE_SIZE as u64) as usize;
                    d[cut..].fill(0);
                }
            }
            let _ = page_type(&d);
            let _ = next_page(&d);
            let _ = free_space(&d);
            let _ = can_fit(&d, 100);
            for s in 0..slot_count(&d).min(512) {
                let _ = get_record(&d, s);
            }
            let _: Vec<u16> = occupied_slots(&d).take(512).collect();
            let mut m = d.clone();
            compact(&mut m);
            let mut m = d.clone();
            let _ = insert_record(&mut m, b"probe");
            let mut m = d.clone();
            let _ = insert_record_at(&mut m, 9, b"probe");
            let mut m = d.clone();
            let _ = update_record(&mut m, 0, b"probe");
            let mut m = d.clone();
            let _ = delete_record(&mut m, 0);
        }
    }
}
