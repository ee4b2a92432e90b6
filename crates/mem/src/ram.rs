//! Volatile and read-only memory devices.
//!
//! Both [`Ram`] and [`Rom`] are backed by the sparse copy-on-write
//! [`PageStore`]: untouched memory reads as zero without being resident,
//! and [`Device::snapshot`] is O(resident pages), which is what makes
//! fleet forks cheap. The paging is invisible at the bus interface —
//! accesses, errors and `host_load` semantics are byte-identical to the
//! old flat `Vec<u8>` backing (see `tests/sparse_props.rs`).

use std::any::Any;

use crate::device::{BusError, Device};
use crate::pages::PageStore;

/// Bulk read for [`Ram`]/[`Rom`]: page-slice copies, with the same
/// error a per-byte loop would hit first when the range runs off the end.
fn read_store(store: &PageStore, off: u32, buf: &mut [u8]) -> Result<(), BusError> {
    let size = store.size();
    if u64::from(off) + buf.len() as u64 > u64::from(size) {
        return Err(BusError::Unmapped {
            addr: off.max(size),
        });
    }
    store.read_into(off, buf);
    Ok(())
}

/// A plain RAM device (used for both on-chip SRAM and external DRAM).
#[derive(Debug, Clone)]
pub struct Ram {
    name: &'static str,
    store: PageStore,
}

impl Ram {
    /// Creates a zeroed RAM of `size` bytes (sparse: no pages resident).
    pub fn new(name: &'static str, size: u32) -> Self {
        Ram {
            name,
            store: PageStore::new(size),
        }
    }

    /// Creates a zeroed RAM with dense (fully materialized, deep-copy
    /// snapshot) backing — the reference mode for differential runs.
    pub fn new_dense(name: &'static str, size: u32) -> Self {
        Ram {
            name,
            store: PageStore::new_dense(size),
        }
    }

    /// Switches between sparse and dense backing without changing
    /// contents.
    pub fn set_dense(&mut self, dense: bool) {
        self.store.set_dense(dense);
    }

    /// Direct host access to the contents (diagnostics, assertions).
    /// Materializes the full image; O(size).
    pub fn bytes(&self) -> Vec<u8> {
        self.store.to_vec()
    }

    /// Number of materialized 4 KiB pages.
    pub fn resident_pages(&self) -> usize {
        self.store.resident_pages()
    }

    /// Pages physically shared with `other` (fork diagnostics; see
    /// [`PageStore::shared_pages_with`]).
    pub fn shared_pages_with(&self, other: &Ram) -> usize {
        self.store.shared_pages_with(&other.store)
    }

    /// Fills the entire memory with a byte pattern (used to model the
    /// "memory not sanitized across reset" behaviour the Secure Loader
    /// defends against).
    pub fn fill(&mut self, pattern: u8) {
        self.store.fill(pattern);
    }
}

impl Device for Ram {
    fn name(&self) -> &'static str {
        self.name
    }

    fn size(&self) -> u32 {
        self.store.size()
    }

    fn read32(&mut self, off: u32) -> Result<u32, BusError> {
        if u64::from(off) + 4 > u64::from(self.store.size()) {
            return Err(BusError::Unmapped { addr: off });
        }
        Ok(self.store.read32(off))
    }

    fn write32(&mut self, off: u32, value: u32) -> Result<(), BusError> {
        if u64::from(off) + 4 > u64::from(self.store.size()) {
            return Err(BusError::Unmapped { addr: off });
        }
        self.store.write32(off, value);
        Ok(())
    }

    fn read8(&mut self, off: u32) -> Result<u8, BusError> {
        if off >= self.store.size() {
            return Err(BusError::Unmapped { addr: off });
        }
        Ok(self.store.read8(off))
    }

    fn read_bytes(&mut self, off: u32, buf: &mut [u8]) -> Result<(), BusError> {
        read_store(&self.store, off, buf)
    }

    fn write8(&mut self, off: u32, value: u8) -> Result<(), BusError> {
        if off >= self.store.size() {
            return Err(BusError::Unmapped { addr: off });
        }
        self.store.write8(off, value);
        Ok(())
    }

    fn host_load(&mut self, off: u32, bytes: &[u8]) -> bool {
        self.store.host_load(off, bytes)
    }

    fn stable_storage(&self) -> bool {
        true
    }

    fn resident_bytes(&self) -> u64 {
        self.store.resident_bytes()
    }

    fn snapshot(&self) -> Option<Box<dyn Device>> {
        Some(Box::new(Ram {
            name: self.name,
            store: self.store.snapshot(),
        }))
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// A programmable ROM: readable at runtime, writable only through the
/// host-side load path (modelling factory/field programming of PROM).
#[derive(Debug, Clone)]
pub struct Rom {
    store: PageStore,
}

impl Rom {
    /// Creates a zeroed ROM of `size` bytes (sparse backing).
    pub fn new(size: u32) -> Self {
        Rom {
            store: PageStore::new(size),
        }
    }

    /// Creates a zeroed ROM with dense (reference) backing.
    pub fn new_dense(size: u32) -> Self {
        Rom {
            store: PageStore::new_dense(size),
        }
    }

    /// Switches between sparse and dense backing without changing
    /// contents.
    pub fn set_dense(&mut self, dense: bool) {
        self.store.set_dense(dense);
    }

    /// Direct host access to the contents. Materializes the full image;
    /// O(size).
    pub fn bytes(&self) -> Vec<u8> {
        self.store.to_vec()
    }

    /// Number of materialized 4 KiB pages.
    pub fn resident_pages(&self) -> usize {
        self.store.resident_pages()
    }

    /// Pages physically shared with `other` (fork diagnostics; see
    /// [`PageStore::shared_pages_with`]).
    pub fn shared_pages_with(&self, other: &Rom) -> usize {
        self.store.shared_pages_with(&other.store)
    }
}

impl Device for Rom {
    fn name(&self) -> &'static str {
        "prom"
    }

    fn size(&self) -> u32 {
        self.store.size()
    }

    fn read32(&mut self, off: u32) -> Result<u32, BusError> {
        if u64::from(off) + 4 > u64::from(self.store.size()) {
            return Err(BusError::Unmapped { addr: off });
        }
        Ok(self.store.read32(off))
    }

    fn write32(&mut self, off: u32, _value: u32) -> Result<(), BusError> {
        Err(BusError::ReadOnly { addr: off })
    }

    fn read8(&mut self, off: u32) -> Result<u8, BusError> {
        if off >= self.store.size() {
            return Err(BusError::Unmapped { addr: off });
        }
        Ok(self.store.read8(off))
    }

    fn read_bytes(&mut self, off: u32, buf: &mut [u8]) -> Result<(), BusError> {
        read_store(&self.store, off, buf)
    }

    fn write8(&mut self, off: u32, _value: u8) -> Result<(), BusError> {
        Err(BusError::ReadOnly { addr: off })
    }

    fn host_load(&mut self, off: u32, bytes: &[u8]) -> bool {
        self.store.host_load(off, bytes)
    }

    fn stable_storage(&self) -> bool {
        true
    }

    fn resident_bytes(&self) -> u64 {
        self.store.resident_bytes()
    }

    fn snapshot(&self) -> Option<Box<dyn Device>> {
        Some(Box::new(Rom {
            store: self.store.snapshot(),
        }))
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ram_word_roundtrip() {
        let mut r = Ram::new("sram", 64);
        r.write32(8, 0xdead_beef).unwrap();
        assert_eq!(r.read32(8), Ok(0xdead_beef));
        assert_eq!(r.read8(8), Ok(0xef));
        assert_eq!(r.read8(11), Ok(0xde));
    }

    #[test]
    fn ram_byte_write() {
        let mut r = Ram::new("sram", 8);
        r.write8(5, 0x7f).unwrap();
        assert_eq!(r.read32(4), Ok(0x0000_7f00));
    }

    #[test]
    fn ram_fill_models_stale_memory() {
        let mut r = Ram::new("sram", 16);
        r.fill(0xcc);
        assert_eq!(r.read32(12), Ok(0xcccc_cccc));
    }

    #[test]
    fn rom_rejects_runtime_writes() {
        let mut r = Rom::new(16);
        assert_eq!(r.write32(0, 1), Err(BusError::ReadOnly { addr: 0 }));
        assert_eq!(r.write8(3, 1), Err(BusError::ReadOnly { addr: 3 }));
    }

    #[test]
    fn rom_host_load_visible_to_reads() {
        let mut r = Rom::new(16);
        assert!(r.host_load(4, &[1, 2, 3, 4]));
        assert_eq!(r.read32(4), Ok(0x0403_0201));
    }

    #[test]
    fn host_load_bounds_checked() {
        let mut r = Rom::new(8);
        assert!(!r.host_load(6, &[0; 4]));
        let mut m = Ram::new("sram", 8);
        assert!(!m.host_load(9, &[0]));
    }

    /// Regression: out-of-range offsets used to slice past the backing
    /// vector and panic; they must surface as `BusError::Unmapped`.
    #[test]
    fn ram_oob_accesses_error_not_panic() {
        let mut r = Ram::new("sram", 64);
        // Last valid word is at 60; 61..64 would read past the end.
        assert_eq!(r.read32(60), Ok(0));
        assert!(r.write32(60, 1).is_ok());
        for bad in [61, 62, 63, 64, 100, u32::MAX] {
            assert_eq!(r.read32(bad), Err(BusError::Unmapped { addr: bad }));
            assert_eq!(r.write32(bad, 1), Err(BusError::Unmapped { addr: bad }));
        }
        assert_eq!(r.read8(63), Ok(0));
        assert!(r.write8(63, 9).is_ok());
        assert_eq!(r.read8(64), Err(BusError::Unmapped { addr: 64 }));
        assert_eq!(r.write8(64, 1), Err(BusError::Unmapped { addr: 64 }));
    }

    #[test]
    fn bulk_reads_match_byte_reads_and_bounds() {
        let mut r = Rom::new(32);
        assert!(r.host_load(28, &[1, 2, 3, 4]));
        let mut buf = [0u8; 6];
        assert_eq!(r.read_bytes(26, &mut buf), Ok(()));
        assert_eq!(buf, [0, 0, 1, 2, 3, 4]);
        // Running off the end reports the first byte a byte loop would
        // have failed on.
        let mut long = [0u8; 8];
        assert_eq!(
            r.read_bytes(28, &mut long),
            Err(BusError::Unmapped { addr: 32 })
        );
        let mut m = Ram::new("sram", 8);
        assert_eq!(
            m.read_bytes(40, &mut [0u8; 2]),
            Err(BusError::Unmapped { addr: 40 })
        );
    }

    #[test]
    fn rom_oob_accesses_error_not_panic() {
        let mut r = Rom::new(32);
        assert_eq!(r.read32(28), Ok(0));
        for bad in [29, 31, 32, u32::MAX - 3] {
            assert_eq!(r.read32(bad), Err(BusError::Unmapped { addr: bad }));
        }
        assert_eq!(r.read8(32), Err(BusError::Unmapped { addr: 32 }));
        // Writes stay ReadOnly even out of range (write is rejected
        // before the bounds question arises).
        assert_eq!(r.write32(64, 1), Err(BusError::ReadOnly { addr: 64 }));
    }

    #[test]
    fn fresh_ram_is_fully_sparse() {
        let mut r = Ram::new("dram", 1 << 20);
        assert_eq!(r.resident_pages(), 0);
        assert_eq!(Device::resident_bytes(&r), 0);
        assert_eq!(r.size(), 1 << 20);
        r.write32(0x8000, 1).unwrap();
        assert_eq!(r.resident_pages(), 1);
        assert_eq!(Device::resident_bytes(&r), 4096);
    }

    #[test]
    fn dense_ram_reports_full_residency() {
        let r = Ram::new_dense("sram", 64 * 1024);
        assert_eq!(Device::resident_bytes(&r), 64 * 1024);
        let mut s = Ram::new("sram", 64 * 1024);
        s.set_dense(true);
        assert_eq!(Device::resident_bytes(&s), 64 * 1024);
        s.set_dense(false);
        assert_eq!(Device::resident_bytes(&s), 0);
    }

    #[test]
    fn ram_snapshot_is_isolated_both_ways() {
        let mut parent = Ram::new("sram", 16 * 1024);
        parent.write32(0, 0x11).unwrap();
        let mut child = parent.snapshot().expect("ram snapshots");
        child.write32(0, 0x22).unwrap();
        child.write32(8192, 0x33).unwrap();
        assert_eq!(parent.read32(0), Ok(0x11));
        assert_eq!(parent.read32(8192), Ok(0));
        parent.write32(4, 0x44).unwrap();
        assert_eq!(child.read32(4), Ok(0));
        assert_eq!(child.read32(0), Ok(0x22));
    }
}
