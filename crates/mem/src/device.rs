//! The bus-device interface.

use core::fmt;
use std::any::Any;

/// An error produced by a physical memory access.
///
/// The CPU turns these into memory-fault exceptions (distinct from MPU
/// protection faults, which are raised before the access reaches the bus).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusError {
    /// No device is mapped at the address.
    Unmapped { addr: u32 },
    /// The access is not naturally aligned.
    Misaligned { addr: u32 },
    /// The target is read-only at runtime (e.g. PROM).
    ReadOnly { addr: u32 },
    /// The device rejects the access width (e.g. byte access to MMIO).
    BadWidth { addr: u32 },
}

impl BusError {
    /// The faulting physical address.
    pub fn addr(&self) -> u32 {
        match *self {
            BusError::Unmapped { addr }
            | BusError::Misaligned { addr }
            | BusError::ReadOnly { addr }
            | BusError::BadWidth { addr } => addr,
        }
    }
}

impl fmt::Display for BusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusError::Unmapped { addr } => write!(f, "unmapped address {addr:#010x}"),
            BusError::Misaligned { addr } => write!(f, "misaligned access at {addr:#010x}"),
            BusError::ReadOnly { addr } => write!(f, "write to read-only memory at {addr:#010x}"),
            BusError::BadWidth { addr } => {
                write!(f, "unsupported access width at {addr:#010x}")
            }
        }
    }
}

impl std::error::Error for BusError {}

/// An interrupt request raised by a device.
///
/// Per the paper's Figure 3, peripherals such as the timer carry a
/// programmable `handler(ISR)` register; when that register is set the
/// request is *vectored by the peripheral* and the exception engine jumps
/// to the given handler. Otherwise the request is resolved through the
/// interrupt descriptor table by line number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IrqRequest {
    /// Interrupt line number (IDT index when `handler` is `None`).
    pub line: u8,
    /// Peripheral-programmed handler address, if any.
    pub handler: Option<u32>,
}

/// A component attached to the system bus.
///
/// Offsets passed to the access methods are relative to the device's
/// mapping base and are guaranteed in-range by the bus. Word accesses are
/// guaranteed aligned.
///
/// Devices are `Send` so a whole machine (bus included) can be moved to a
/// fleet worker thread; device state is owned data, never shared.
pub trait Device: Any + Send {
    /// Short stable name (used for host-side lookup and diagnostics).
    fn name(&self) -> &'static str;

    /// Size of the device's address window in bytes.
    fn size(&self) -> u32;

    /// Reads an aligned 32-bit word.
    fn read32(&mut self, off: u32) -> Result<u32, BusError>;

    /// Writes an aligned 32-bit word.
    fn write32(&mut self, off: u32, value: u32) -> Result<(), BusError>;

    /// Reads one byte. The default extracts from the containing word;
    /// register-bank devices typically override this to reject byte access.
    fn read8(&mut self, off: u32) -> Result<u8, BusError> {
        let word = self.read32(off & !3)?;
        Ok((word >> (8 * (off & 3))) as u8)
    }

    /// Fills `buf` from consecutive bytes starting at `off` (the bus has
    /// checked the whole range is in the window). The default is one
    /// [`Device::read8`] per byte, so register banks keep their exact
    /// per-access behaviour and report the first failing offset; plain
    /// storage overrides it with a bulk copy.
    fn read_bytes(&mut self, off: u32, buf: &mut [u8]) -> Result<(), BusError> {
        for (i, b) in buf.iter_mut().enumerate() {
            *b = self.read8(off + i as u32)?;
        }
        Ok(())
    }

    /// Writes one byte via read-modify-write of the containing word.
    fn write8(&mut self, off: u32, value: u8) -> Result<(), BusError> {
        let word = self.read32(off & !3)?;
        let shift = 8 * (off & 3);
        let merged = (word & !(0xff << shift)) | ((value as u32) << shift);
        self.write32(off & !3, merged)
    }

    /// Advances device time by `cycles` CPU cycles and returns a pending
    /// interrupt request, if the device raises one.
    fn tick(&mut self, _cycles: u64) -> Option<IrqRequest> {
        None
    }

    /// True if [`Device::tick`] does anything at all for this device.
    ///
    /// The bus batches per-instruction ticking: tickable devices are
    /// caught up with the accumulated cycles before any bus access
    /// reaches them, and [`Device::tick_hint`] bounds how long ticking
    /// may be deferred between accesses. A device that overrides `tick`
    /// MUST override this to return true, or its ticks will be skipped.
    fn is_tickable(&self) -> bool {
        false
    }

    /// An exactness bound for batched ticking: `Some(n)` means `tick`
    /// is a pure countdown (no interrupt, no observable state change at
    /// an instruction boundary) until `n` more cycles have elapsed, so
    /// the bus must deliver accumulated cycles once they reach `n`.
    /// `Some(0)` demands a tick at the very next instruction boundary.
    /// `None` means time alone never changes the device's observable
    /// behaviour — it only needs catching up when it is next accessed.
    ///
    /// Only consulted when [`Device::is_tickable`] is true.
    fn tick_hint(&self) -> Option<u64> {
        None
    }

    /// True if the device is plain storage: its contents change only
    /// through bus writes and [`Device::host_load`], never spontaneously,
    /// and reads are side-effect free. The CPU's predecode cache only
    /// caches instruction words fetched from stable storage.
    fn stable_storage(&self) -> bool {
        false
    }

    /// Host-side (out-of-band) image load used by reset logic to program
    /// PROM and preload RAM. Returns false if the device is not loadable.
    fn host_load(&mut self, _off: u32, _bytes: &[u8]) -> bool {
        false
    }

    /// Host-side bytes actually materialized for this device, for
    /// footprint reporting. Sparse devices ([`crate::Ram`]/[`crate::Rom`])
    /// override this with their resident-page total; the default assumes
    /// dense backing (resident == addressable). Purely diagnostic: never
    /// guest-visible and never part of any digest.
    fn resident_bytes(&self) -> u64 {
        u64::from(self.size())
    }

    /// Deep-copies the device for snapshot/fork, or `None` if the device
    /// cannot be snapshotted. Every in-tree device supports this (their
    /// state is plain owned data); the default conservatively refuses so
    /// exotic host-backed devices opt in explicitly.
    fn snapshot(&self) -> Option<Box<dyn Device>> {
        None
    }

    /// Upcast for host-side inspection.
    fn as_any(&mut self) -> &mut dyn Any;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct WordDev {
        word: u32,
    }

    impl Device for WordDev {
        fn name(&self) -> &'static str {
            "word"
        }
        fn size(&self) -> u32 {
            4
        }
        fn read32(&mut self, _off: u32) -> Result<u32, BusError> {
            Ok(self.word)
        }
        fn write32(&mut self, _off: u32, value: u32) -> Result<(), BusError> {
            self.word = value;
            Ok(())
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn default_byte_access_little_endian() {
        let mut d = WordDev { word: 0x4433_2211 };
        assert_eq!(d.read8(0), Ok(0x11));
        assert_eq!(d.read8(3), Ok(0x44));
        d.write8(1, 0xaa).unwrap();
        assert_eq!(d.word, 0x4433_aa11);
    }

    #[test]
    fn bus_error_addr_accessor() {
        assert_eq!(BusError::Unmapped { addr: 5 }.addr(), 5);
        assert_eq!(BusError::ReadOnly { addr: 9 }.addr(), 9);
    }
}
