//! Property tests on the physical bus.

use proptest::prelude::*;
use trustlite_mem::{Bus, Ram, Rom};

fn small_bus() -> Bus {
    let mut bus = Bus::new();
    bus.map(0x0000, Box::new(Rom::new(0x400)))
        .expect("rom maps");
    bus.map(0x1000, Box::new(Ram::new("a", 0x400)))
        .expect("ram a maps");
    bus.map(0x2000, Box::new(Ram::new("b", 0x400)))
        .expect("ram b maps");
    bus
}

proptest! {
    /// Any mix of accesses at arbitrary addresses returns a result and
    /// never panics.
    #[test]
    fn arbitrary_accesses_never_panic(
        ops in proptest::collection::vec((any::<u32>(), any::<u32>(), 0u8..4), 0..200)
    ) {
        let mut bus = small_bus();
        for (addr, value, kind) in ops {
            match kind {
                0 => {
                    let _ = bus.read32(addr);
                }
                1 => {
                    let _ = bus.write32(addr, value);
                }
                2 => {
                    let _ = bus.read8(addr);
                }
                _ => {
                    let _ = bus.write8(addr, value as u8);
                }
            }
        }
    }

    /// Read-after-write holds for every RAM word, and writes to one RAM
    /// never alias the other.
    #[test]
    fn ram_read_after_write(off in (0u32..0x100).prop_map(|o| o * 4), v in any::<u32>()) {
        let mut bus = small_bus();
        bus.write32(0x1000 + off, v).expect("in range");
        bus.write32(0x2000 + off, !v).expect("in range");
        prop_assert_eq!(bus.read32(0x1000 + off), Ok(v));
        prop_assert_eq!(bus.read32(0x2000 + off), Ok(!v));
    }

    /// Byte-wise writes compose into the little-endian word.
    #[test]
    fn byte_writes_compose(off in (0u32..0x100).prop_map(|o| o * 4), bytes in any::<[u8; 4]>()) {
        let mut bus = small_bus();
        for (i, b) in bytes.iter().enumerate() {
            bus.write8(0x1000 + off + i as u32, *b).expect("in range");
        }
        prop_assert_eq!(bus.read32(0x1000 + off), Ok(u32::from_le_bytes(bytes)));
    }

    /// Overlapping mappings are rejected regardless of order and size.
    #[test]
    fn overlap_always_rejected(base in 0u32..0x3000, size_sel in 1u32..4) {
        let mut bus = small_bus();
        let size = size_sel * 0x200;
        let result = bus.map(base, Box::new(Ram::new("x", size)));
        let end = base as u64 + size as u64;
        let overlaps = [(0x0000u64, 0x400u64), (0x1000, 0x400), (0x2000, 0x400)]
            .iter()
            .any(|&(b, s)| (base as u64) < b + s && b < end);
        prop_assert_eq!(result.is_err(), overlaps, "base={:#x} size={:#x}", base, size);
    }
}

// ---------------------------------------------------------------------
// Bulk reads: `Bus::read_bytes` against a fold of `Bus::read8`.
// ---------------------------------------------------------------------

use std::any::Any;
use trustlite_mem::{BusError, Device, IrqRequest, PAGE_SIZE};

/// A word-only register bank (byte reads are `BadWidth`), like the MPU
/// and key-store windows.
#[derive(Clone)]
struct Regs;

impl Device for Regs {
    fn name(&self) -> &'static str {
        "regs"
    }
    fn size(&self) -> u32 {
        0x10
    }
    fn read32(&mut self, off: u32) -> Result<u32, BusError> {
        Ok(0x1111_1111 * (off / 4 + 1))
    }
    fn write32(&mut self, _off: u32, _value: u32) -> Result<(), BusError> {
        Ok(())
    }
    fn read8(&mut self, off: u32) -> Result<u8, BusError> {
        Err(BusError::BadWidth { addr: off })
    }
    fn snapshot(&self) -> Option<Box<dyn Device>> {
        Some(Box::new(self.clone()))
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// A receive FIFO: every byte read pops, so a bulk read that skipped or
/// repeated an access would show in every later read.
#[derive(Clone)]
struct Fifo {
    next: u8,
}

impl Device for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }
    fn size(&self) -> u32 {
        0x10
    }
    fn read32(&mut self, _off: u32) -> Result<u32, BusError> {
        Ok(u32::from(self.next))
    }
    fn write32(&mut self, _off: u32, value: u32) -> Result<(), BusError> {
        self.next = value as u8;
        Ok(())
    }
    fn read8(&mut self, off: u32) -> Result<u8, BusError> {
        self.next = self.next.wrapping_add(1);
        Ok(self.next ^ off as u8)
    }
    fn snapshot(&self) -> Option<Box<dyn Device>> {
        Some(Box::new(self.clone()))
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// A tickable countdown whose bytes expose the remaining count; reads
/// must catch it up first.
#[derive(Clone)]
struct Countdown {
    count: u64,
}

impl Device for Countdown {
    fn name(&self) -> &'static str {
        "countdown"
    }
    fn size(&self) -> u32 {
        8
    }
    fn read32(&mut self, off: u32) -> Result<u32, BusError> {
        Ok((self.count >> (8 * (off & 4))) as u32)
    }
    fn write32(&mut self, _off: u32, value: u32) -> Result<(), BusError> {
        self.count = u64::from(value);
        Ok(())
    }
    fn tick(&mut self, cycles: u64) -> Option<IrqRequest> {
        self.count = self.count.wrapping_sub(cycles);
        None
    }
    fn is_tickable(&self) -> bool {
        true
    }
    fn snapshot(&self) -> Option<Box<dyn Device>> {
        Some(Box::new(self.clone()))
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

const ROM_SIZE: u32 = 3 * PAGE_SIZE;
const RAM_A: u32 = ROM_SIZE; // adjacent to the ROM, ragged tail page
const RAM_A_SIZE: u32 = PAGE_SIZE + PAGE_SIZE / 2;
const RAM_B: u32 = 0x5000; // after an unmapped gap
const RAM_B_SIZE: u32 = 2 * PAGE_SIZE;
const REGS: u32 = 0x7000;
const FIFO: u32 = 0x7010; // adjacent to the register bank
const COUNTDOWN: u32 = 0x7100;

/// Interesting range anchors: device bases and ends, page boundaries
/// inside devices, the gap, the MMIO windows.
const ANCHORS: [u32; 12] = [
    0,
    PAGE_SIZE,
    2 * PAGE_SIZE,
    RAM_A,
    RAM_A + PAGE_SIZE,
    RAM_A + RAM_A_SIZE,
    RAM_B,
    RAM_B + PAGE_SIZE,
    RAM_B + RAM_B_SIZE,
    REGS,
    FIFO,
    COUNTDOWN,
];

/// ROM with pages 0 and 2 resident (page 1 absent), RAM A with its tail
/// page resident, RAM B empty, then the MMIO windows.
fn rich_bus(dense: bool) -> Bus {
    let (rom, ram_a, ram_b) = if dense {
        (
            Rom::new_dense(ROM_SIZE),
            Ram::new_dense("a", RAM_A_SIZE),
            Ram::new_dense("b", RAM_B_SIZE),
        )
    } else {
        (
            Rom::new(ROM_SIZE),
            Ram::new("a", RAM_A_SIZE),
            Ram::new("b", RAM_B_SIZE),
        )
    };
    let mut bus = Bus::new();
    bus.map(0, Box::new(rom)).expect("rom maps");
    bus.map(RAM_A, Box::new(ram_a)).expect("ram a maps");
    bus.map(RAM_B, Box::new(ram_b)).expect("ram b maps");
    bus.map(REGS, Box::new(Regs)).expect("regs map");
    bus.map(FIFO, Box::new(Fifo { next: 0 }))
        .expect("fifo maps");
    bus.map(COUNTDOWN, Box::new(Countdown { count: 1 << 40 }))
        .expect("countdown maps");
    let pattern: Vec<u8> = (0..PAGE_SIZE).map(|i| (i * 7 + 3) as u8).collect();
    assert!(bus.host_load(0, &pattern));
    assert!(bus.host_load(2 * PAGE_SIZE + 100, &pattern[..PAGE_SIZE as usize - 100]));
    assert!(bus.host_load(RAM_A + PAGE_SIZE + 8, &pattern[..64]));
    bus
}

/// One generated step: a range read, a write or a tick.
#[derive(Debug, Clone, Copy)]
enum Step {
    Read { addr: u32, len: u32 },
    Write { addr: u32, value: u32 },
    Tick(u64),
}

/// An address within 48 bytes of an anchor.
fn near_anchor() -> impl Strategy<Value = u32> {
    (0..ANCHORS.len(), 0u32..96).prop_map(|(i, d)| ANCHORS[i].saturating_sub(48) + d)
}

fn any_step() -> impl Strategy<Value = Step> {
    let len = prop_oneof![0u32..24, 0u32..3 * PAGE_SIZE];
    prop_oneof![
        (near_anchor(), len).prop_map(|(addr, len)| Step::Read { addr, len }),
        // Short reads starting at an anchor, so small MMIO windows see
        // ranges that fit inside them.
        (0..ANCHORS.len(), 0u32..8, 1u32..9).prop_map(|(i, off, len)| Step::Read {
            addr: ANCHORS[i] + off,
            len,
        }),
        (near_anchor(), any::<u32>()).prop_map(|(addr, value)| Step::Write { addr, value }),
        (1u64..50).prop_map(Step::Tick),
    ]
}

fn fold_read8(bus: &mut Bus, addr: u32, len: u32) -> Result<Vec<u8>, BusError> {
    (0..len).map(|i| bus.read8(addr + i)).collect()
}

/// Runs `steps` on a bulk-reading bus and a byte-folding twin; every
/// read must agree, and no bulk read may change residency or the host
/// generation.
fn check_bulk_matches_fold(bulk: &mut Bus, bytes: &mut Bus, steps: &[Step], writes: bool) {
    for &step in steps {
        match step {
            Step::Read { addr, len } => {
                let (gen, resident) = (bulk.host_gen(), bulk.resident_bytes());
                let got = bulk.read_bytes(addr, len);
                assert_eq!(got, fold_read8(bytes, addr, len), "{step:?}");
                assert_eq!(bulk.host_gen(), gen, "bulk read moved host_gen: {step:?}");
                assert_eq!(bulk.resident_bytes(), resident, "{step:?}");
            }
            Step::Write { addr, value } if writes => {
                assert_eq!(
                    bulk.write8(addr, value as u8),
                    bytes.write8(addr, value as u8)
                );
                let word = addr & !3;
                assert_eq!(bulk.write32(word, value), bytes.write32(word, value));
            }
            Step::Write { .. } => {}
            Step::Tick(n) => assert_eq!(bulk.tick(n), bytes.tick(n)),
        }
    }
    // Device state (FIFO position, countdown) ended up identical too.
    for addr in [FIFO, FIFO + 3, COUNTDOWN, COUNTDOWN + 5] {
        assert_eq!(bulk.read8(addr), bytes.read8(addr));
    }
}

/// Pages of every memory device on `child` still shared with `parent`.
fn shared_pages(child: &mut Bus, parent: &mut Bus) -> usize {
    let rom = child.device_mut::<Rom>("prom").expect("rom");
    let mut shared = rom.shared_pages_with(parent.device_mut::<Rom>("prom").expect("rom"));
    for name in ["a", "b"] {
        let ram = child.device_mut::<Ram>(name).expect("ram");
        shared += ram.shared_pages_with(parent.device_mut::<Ram>(name).expect("ram"));
    }
    shared
}

proptest! {
    /// Bulk reads equal a byte-by-byte fold — same bytes, same error,
    /// same faulting address — for ranges inside a page, across pages,
    /// at device ends, over the unmapped gap and over MMIO windows, in
    /// sparse and dense backing.
    #[test]
    fn bulk_read_matches_read8_fold(
        steps in proptest::collection::vec(any_step(), 1..40),
        dense in any::<bool>(),
    ) {
        check_bulk_matches_fold(&mut rich_bus(dense), &mut rich_bus(dense), &steps, true);
    }

    /// The same on a forked bus, where bulk reads must also leave every
    /// page shared with the parent exactly as the fork left it.
    #[test]
    fn bulk_read_after_fork_keeps_pages_shared(
        steps in proptest::collection::vec(any_step(), 1..40),
        dense in any::<bool>(),
    ) {
        let mut parent = rich_bus(dense);
        let mut bulk = parent.snapshot().expect("snapshots");
        let mut bytes = parent.snapshot().expect("snapshots");
        let at_fork = shared_pages(&mut bulk, &mut parent);
        prop_assert_eq!(at_fork, if dense { 0 } else { 3 });
        // Reads and ticks only: a write would unshare legitimately.
        check_bulk_matches_fold(&mut bulk, &mut bytes, &steps, false);
        prop_assert_eq!(shared_pages(&mut bulk, &mut parent), at_fork);
    }
}
