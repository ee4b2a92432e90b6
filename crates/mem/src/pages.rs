//! Sparse, page-granular, copy-on-write backing store for memory devices.
//!
//! Forking a fleet device used to deep-copy every byte of its RAM, so a
//! 64-device fan-out spent tens of milliseconds cloning megabytes of
//! mostly-zero memory. [`PageStore`] replaces the flat `Vec<u8>` behind
//! [`crate::Ram`]/[`crate::Rom`] with a vector of optional 4 KiB pages:
//!
//! * an **absent** page reads as zero and costs nothing to store or copy;
//! * a **present** page is an `Arc<Page>` — snapshotting the store is one
//!   reference-count bump per resident page, O(pages-present) instead of
//!   O(size);
//! * the write paths (`write8`/`write32`/`fill`/`host_load`) materialize
//!   absent pages lazily and clone shared pages on first write
//!   (`Arc::make_mut`), so divergence after a fork is private to the
//!   writer and invisible to every other holder of the page.
//!
//! The paging is a host-simulator artifact, invisible to the guest ISA,
//! the EA-MPU and all digests: every observable read/write/error is
//! byte-identical to a dense flat array (`tests` and the workspace
//! differential property tests enforce this). A *dense* mode —
//! [`PageStore::new_dense`] / [`PageStore::set_dense`] — keeps every page
//! materialized and deep-copies on snapshot, reproducing the pre-sparse
//! behaviour as the reference side of dense-vs-sparse differential tests
//! (`trustlite::Platform::set_dense_memory`).

use core::fmt;
use std::sync::Arc;

/// Log2 of the page size.
pub const PAGE_SHIFT: u32 = 12;
/// Size of one backing page in bytes (4 KiB).
pub const PAGE_SIZE: u32 = 1 << PAGE_SHIFT;
const PAGE_MASK: usize = PAGE_SIZE as usize - 1;

/// One 4 KiB backing page.
#[derive(Clone)]
pub struct Page(pub [u8; PAGE_SIZE as usize]);

impl Page {
    fn filled(pattern: u8) -> Page {
        Page([pattern; PAGE_SIZE as usize])
    }
}

/// A sparse page-granular store of `size` logical bytes.
///
/// All offset-taking methods expect in-range offsets (callers — the
/// memory devices — bounds-check first and surface `BusError`s); word
/// accessors tolerate page-straddling unaligned offsets by falling back
/// to byte access.
#[derive(Clone)]
pub struct PageStore {
    size: u32,
    pages: Vec<Option<Arc<Page>>>,
    /// Dense mode: every page stays materialized and uniquely owned, and
    /// [`PageStore::snapshot`] deep-copies — the pre-sparse reference
    /// behaviour for differential runs.
    dense: bool,
}

impl fmt::Debug for PageStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PageStore")
            .field("size", &self.size)
            .field("resident_pages", &self.resident_pages())
            .field("dense", &self.dense)
            .finish()
    }
}

impl PageStore {
    /// Creates a sparse zeroed store of `size` bytes (no pages resident).
    pub fn new(size: u32) -> PageStore {
        let npages = (size as usize).div_ceil(PAGE_SIZE as usize);
        PageStore {
            size,
            pages: vec![None; npages],
            dense: false,
        }
    }

    /// Creates a dense zeroed store: every page materialized up front and
    /// deep-copied on snapshot.
    pub fn new_dense(size: u32) -> PageStore {
        let mut store = PageStore::new(size);
        store.set_dense(true);
        store
    }

    /// Logical size in bytes.
    #[inline(always)]
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Switches backing mode. `true` materializes every page and unshares
    /// them (deep copies of shared pages); `false` drops all-zero pages
    /// so the store re-sparsifies. Contents are unchanged either way.
    pub fn set_dense(&mut self, dense: bool) {
        self.dense = dense;
        if dense {
            for slot in &mut self.pages {
                match slot {
                    Some(page) => {
                        // Force unique ownership: make_mut deep-copies
                        // iff the page is shared.
                        let _ = Arc::make_mut(page);
                    }
                    None => *slot = Some(Arc::new(Page::filled(0))),
                }
            }
        } else {
            for slot in &mut self.pages {
                if slot.as_ref().is_some_and(|p| p.0.iter().all(|&b| b == 0)) {
                    *slot = None;
                }
            }
        }
    }

    /// Number of resident (materialized) pages. Shared pages count once
    /// per *slot*, not once per physical allocation: residency reports
    /// the guest-visible footprint, not host allocator behaviour.
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// Resident bytes, with the tail page capped at the logical size.
    pub fn resident_bytes(&self) -> u64 {
        let mut total = 0u64;
        for (i, page) in self.pages.iter().enumerate() {
            if page.is_some() {
                let base = (i as u64) << PAGE_SHIFT;
                total += u64::from(PAGE_SIZE).min(u64::from(self.size) - base);
            }
        }
        total
    }

    /// Number of page slots physically shared (same allocation) with
    /// `other` at the same page index — diagnostics for COW tests.
    pub fn shared_pages_with(&self, other: &PageStore) -> usize {
        self.pages
            .iter()
            .zip(other.pages.iter())
            .filter(|(a, b)| match (a, b) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            })
            .count()
    }

    /// Reads one byte; absent pages read as zero.
    #[inline(always)]
    pub fn read8(&self, off: u32) -> u8 {
        debug_assert!(off < self.size);
        let i = off as usize;
        match &self.pages[i >> PAGE_SHIFT] {
            Some(p) => p.0[i & PAGE_MASK],
            None => 0,
        }
    }

    /// Reads a little-endian 32-bit word. Aligned words never straddle a
    /// page; the unaligned-straddle case falls back to byte reads.
    #[inline(always)]
    pub fn read32(&self, off: u32) -> u32 {
        debug_assert!(off as u64 + 4 <= u64::from(self.size));
        let i = off as usize;
        let lane = i & PAGE_MASK;
        if lane <= PAGE_MASK - 3 {
            match &self.pages[i >> PAGE_SHIFT] {
                Some(p) => {
                    let b = &p.0[lane..lane + 4];
                    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
                }
                None => 0,
            }
        } else {
            u32::from_le_bytes([
                self.read8(off),
                self.read8(off + 1),
                self.read8(off + 2),
                self.read8(off + 3),
            ])
        }
    }

    /// Copies `buf.len()` bytes starting at `off` into `buf`: one slice
    /// copy per resident page, a zero fill per absent page. Read-only —
    /// never materializes, unshares or counts a page.
    pub fn read_into(&self, off: u32, buf: &mut [u8]) {
        debug_assert!(off as u64 + buf.len() as u64 <= u64::from(self.size));
        let mut cur = off as usize;
        let mut dst = buf;
        while !dst.is_empty() {
            let lane = cur & PAGE_MASK;
            let span = (PAGE_SIZE as usize - lane).min(dst.len());
            let (chunk, rest) = dst.split_at_mut(span);
            match &self.pages[cur >> PAGE_SHIFT] {
                Some(p) => chunk.copy_from_slice(&p.0[lane..lane + span]),
                None => chunk.fill(0),
            }
            cur += span;
            dst = rest;
        }
    }

    /// The page containing `off`, materialized and uniquely owned
    /// (cloned on first write when shared with a fork).
    #[inline(always)]
    fn page_mut(&mut self, off: u32) -> &mut Page {
        let slot = &mut self.pages[(off as usize) >> PAGE_SHIFT];
        if slot.is_none() {
            *slot = Some(Arc::new(Page::filled(0)));
        }
        Arc::make_mut(slot.as_mut().expect("just materialized"))
    }

    /// Writes one byte. Writing zero to an absent page is a no-op in
    /// sparse mode (the page already reads as zero), so zeroing loops
    /// never materialize anything.
    #[inline(always)]
    pub fn write8(&mut self, off: u32, value: u8) {
        debug_assert!(off < self.size);
        if value == 0 && self.pages[(off as usize) >> PAGE_SHIFT].is_none() {
            return;
        }
        self.page_mut(off).0[off as usize & PAGE_MASK] = value;
    }

    /// Writes a little-endian 32-bit word (see [`PageStore::write8`] for
    /// the zero-to-absent-page shortcut).
    #[inline(always)]
    pub fn write32(&mut self, off: u32, value: u32) {
        debug_assert!(off as u64 + 4 <= u64::from(self.size));
        let lane = off as usize & PAGE_MASK;
        if lane <= PAGE_MASK - 3 {
            if value == 0 && self.pages[(off as usize) >> PAGE_SHIFT].is_none() {
                return;
            }
            self.page_mut(off).0[lane..lane + 4].copy_from_slice(&value.to_le_bytes());
        } else {
            for (k, b) in value.to_le_bytes().into_iter().enumerate() {
                self.write8(off + k as u32, b);
            }
        }
    }

    /// Fills the whole store with `pattern`. Filling with zero drops
    /// every page (in sparse mode); a nonzero fill shares one filled
    /// prototype page across all slots — writes after the fill unshare
    /// page by page, exactly like post-fork divergence.
    pub fn fill(&mut self, pattern: u8) {
        if pattern == 0 && !self.dense {
            for slot in &mut self.pages {
                *slot = None;
            }
            return;
        }
        let proto = Arc::new(Page::filled(pattern));
        for slot in &mut self.pages {
            *slot = Some(if self.dense {
                Arc::new(Page::filled(pattern))
            } else {
                Arc::clone(&proto)
            });
        }
    }

    /// Host-side bulk load. Returns false (leaving the store untouched)
    /// when the span exceeds the logical size. All-zero chunks landing on
    /// absent pages are skipped, so zero-padded image loads stay sparse.
    pub fn host_load(&mut self, off: u32, bytes: &[u8]) -> bool {
        let start = off as usize;
        let Some(end) = start.checked_add(bytes.len()) else {
            return false;
        };
        if end > self.size as usize {
            return false;
        }
        let mut cur = start;
        let mut src = bytes;
        while !src.is_empty() {
            let lane = cur & PAGE_MASK;
            let span = (PAGE_SIZE as usize - lane).min(src.len());
            let (chunk, rest) = src.split_at(span);
            let absent = self.pages[cur >> PAGE_SHIFT].is_none();
            if !(absent && !self.dense && chunk.iter().all(|&b| b == 0)) {
                self.page_mut(cur as u32).0[lane..lane + span].copy_from_slice(chunk);
            }
            cur += span;
            src = rest;
        }
        true
    }

    /// Copies the store for snapshot/fork: one `Arc` bump per resident
    /// page in sparse mode, a full deep copy in dense mode.
    pub fn snapshot(&self) -> PageStore {
        if !self.dense {
            return self.clone();
        }
        PageStore {
            size: self.size,
            pages: self
                .pages
                .iter()
                .map(|p| p.as_ref().map(|a| Arc::new(Page(a.0))))
                .collect(),
            dense: true,
        }
    }

    /// Materializes the full contents (diagnostics; O(size)).
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.size as usize];
        self.read_into(0, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_pages_read_zero_and_cost_nothing() {
        let s = PageStore::new(3 * PAGE_SIZE);
        assert_eq!(s.resident_pages(), 0);
        assert_eq!(s.resident_bytes(), 0);
        assert_eq!(s.read32(0), 0);
        assert_eq!(s.read8(2 * PAGE_SIZE + 5), 0);
    }

    #[test]
    fn writes_materialize_only_the_touched_page() {
        let mut s = PageStore::new(4 * PAGE_SIZE);
        s.write32(PAGE_SIZE + 8, 0xdead_beef);
        assert_eq!(s.resident_pages(), 1);
        assert_eq!(s.read32(PAGE_SIZE + 8), 0xdead_beef);
        assert_eq!(s.read32(PAGE_SIZE + 4), 0);
    }

    #[test]
    fn zero_writes_to_absent_pages_stay_sparse() {
        let mut s = PageStore::new(2 * PAGE_SIZE);
        s.write32(0, 0);
        s.write8(PAGE_SIZE + 1, 0);
        assert_eq!(s.resident_pages(), 0);
        // But a zero write to a *present* page really lands.
        s.write8(3, 0xff);
        s.write8(3, 0);
        assert_eq!(s.read8(3), 0);
        assert_eq!(s.resident_pages(), 1);
    }

    #[test]
    fn snapshot_shares_then_cow_unshares() {
        let mut a = PageStore::new(4 * PAGE_SIZE);
        a.write32(0, 7);
        a.write32(2 * PAGE_SIZE, 9);
        let mut b = a.snapshot();
        assert_eq!(b.shared_pages_with(&a), 2, "fork is Arc bumps");
        b.write32(0, 8);
        assert_eq!(b.shared_pages_with(&a), 1, "first write unshares");
        assert_eq!(a.read32(0), 7, "parent unaffected");
        assert_eq!(b.read32(0), 8);
        a.write32(2 * PAGE_SIZE, 10);
        assert_eq!(b.read32(2 * PAGE_SIZE), 9, "child unaffected");
    }

    #[test]
    fn fill_zero_drops_pages_fill_pattern_shares_one() {
        let mut s = PageStore::new(4 * PAGE_SIZE);
        s.fill(0xcc);
        assert_eq!(s.resident_pages(), 4);
        assert_eq!(s.read8(3 * PAGE_SIZE + 7), 0xcc);
        // Writing one byte after a shared fill must not alias the others.
        s.write8(0, 1);
        assert_eq!(s.read8(PAGE_SIZE), 0xcc);
        s.fill(0);
        assert_eq!(s.resident_pages(), 0);
        assert_eq!(s.read8(0), 0);
    }

    #[test]
    fn host_load_straddles_pages_and_skips_zero_chunks() {
        let mut s = PageStore::new(3 * PAGE_SIZE);
        let img: Vec<u8> = (0..=255).cycle().take(PAGE_SIZE as usize + 64).collect();
        assert!(s.host_load(PAGE_SIZE - 32, &img));
        assert_eq!(s.to_vec()[PAGE_SIZE as usize - 32..][..img.len()], img[..]);
        assert_eq!(s.resident_pages(), 3);
        let mut z = PageStore::new(3 * PAGE_SIZE);
        assert!(z.host_load(0, &vec![0u8; 2 * PAGE_SIZE as usize]));
        assert_eq!(z.resident_pages(), 0, "zero image stays sparse");
        assert!(!z.host_load(2 * PAGE_SIZE, &[0; PAGE_SIZE as usize + 1]));
    }

    #[test]
    fn unaligned_word_access_straddling_a_page_boundary() {
        let mut s = PageStore::new(2 * PAGE_SIZE);
        s.write32(PAGE_SIZE - 2, 0x0403_0201);
        assert_eq!(s.read8(PAGE_SIZE - 1), 0x02);
        assert_eq!(s.read8(PAGE_SIZE), 0x03);
        assert_eq!(s.read32(PAGE_SIZE - 2), 0x0403_0201);
        assert_eq!(s.resident_pages(), 2);
    }

    #[test]
    fn dense_mode_materializes_and_deep_copies() {
        let mut s = PageStore::new_dense(2 * PAGE_SIZE);
        assert_eq!(s.resident_pages(), 2);
        s.write32(0, 5);
        let b = s.snapshot();
        assert_eq!(b.shared_pages_with(&s), 0, "dense snapshot deep-copies");
        assert_eq!(b.read32(0), 5);
        // Densify/sparsify round-trips contents.
        let mut t = PageStore::new(2 * PAGE_SIZE);
        t.write32(PAGE_SIZE, 3);
        t.set_dense(true);
        assert_eq!(t.resident_pages(), 2);
        t.set_dense(false);
        assert_eq!(t.resident_pages(), 1, "zero pages dropped again");
        assert_eq!(t.read32(PAGE_SIZE), 3);
    }

    #[test]
    fn read_into_straddles_pages() {
        let mut s = PageStore::new(3 * PAGE_SIZE);
        let img: Vec<u8> = (1..=255).cycle().take(PAGE_SIZE as usize + 64).collect();
        assert!(s.host_load(PAGE_SIZE - 32, &img));
        let mut buf = vec![0xee; img.len()];
        s.read_into(PAGE_SIZE - 32, &mut buf);
        assert_eq!(buf, img);
        assert_eq!(s.resident_pages(), 3);
    }

    #[test]
    fn read_into_absent_pages_zero_fill_without_materializing() {
        let mut s = PageStore::new(4 * PAGE_SIZE);
        s.write8(2 * PAGE_SIZE + 3, 0x5a);
        let mut buf = vec![0xff; 4 * PAGE_SIZE as usize];
        s.read_into(0, &mut buf);
        assert_eq!(buf[2 * PAGE_SIZE as usize + 3], 0x5a);
        assert_eq!(buf.iter().filter(|&&b| b != 0).count(), 1);
        assert_eq!(s.resident_pages(), 1, "reads never materialize");
        assert_eq!(s.resident_bytes(), u64::from(PAGE_SIZE));
    }

    #[test]
    fn read_into_shared_page_after_snapshot_stays_shared() {
        let mut a = PageStore::new(2 * PAGE_SIZE);
        a.write32(PAGE_SIZE - 4, 0x0403_0201);
        a.write32(PAGE_SIZE, 0x0807_0605);
        let b = a.snapshot();
        let mut buf = [0u8; 8];
        b.read_into(PAGE_SIZE - 4, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(b.shared_pages_with(&a), 2, "reads never unshare");
    }

    #[test]
    fn read_into_tail_page_and_empty_buffer() {
        let mut s = PageStore::new(PAGE_SIZE + 16);
        s.write8(PAGE_SIZE + 15, 9);
        let mut buf = [0xffu8; 20];
        s.read_into(PAGE_SIZE - 4, &mut buf);
        assert_eq!(buf[..19], [0; 19]);
        assert_eq!(buf[19], 9);
        s.read_into(PAGE_SIZE + 16, &mut []);
        assert_eq!(s.resident_pages(), 1);
    }

    #[test]
    fn tail_page_resident_bytes_capped_at_size() {
        let mut s = PageStore::new(PAGE_SIZE + 16);
        s.write8(PAGE_SIZE + 1, 1);
        assert_eq!(s.resident_bytes(), 16);
        s.write8(0, 1);
        assert_eq!(s.resident_bytes(), u64::from(PAGE_SIZE) + 16);
    }
}
