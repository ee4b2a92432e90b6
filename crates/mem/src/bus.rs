//! The system bus: routes physical accesses to mapped devices.

use core::fmt;

use crate::device::{BusError, Device, IrqRequest};

/// An error raised when constructing the memory map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapError {
    /// The new window overlaps an existing mapping.
    Overlap { base: u32, size: u32 },
    /// The window wraps past the end of the address space.
    Wraps { base: u32, size: u32 },
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::Overlap { base, size } => {
                write!(
                    f,
                    "mapping {base:#010x}+{size:#x} overlaps an existing device"
                )
            }
            MapError::Wraps { base, size } => {
                write!(f, "mapping {base:#010x}+{size:#x} wraps the address space")
            }
        }
    }
}

impl std::error::Error for MapError {}

struct Mapping {
    base: u32,
    size: u32,
    device: Box<dyn Device>,
}

/// The physical system bus.
///
/// Mappings are non-overlapping windows; lookup is by binary search over
/// the sorted window list. Alignment is checked here once so devices can
/// assume aligned word offsets.
///
/// # Batched device ticking
///
/// With batching on (the default), [`Bus::tick`] accumulates cycles
/// instead of polling every device each instruction. Devices are caught
/// up in two situations only: when the accumulated cycles reach the
/// earliest [`Device::tick_hint`] deadline (so interrupts fire at
/// exactly the instruction boundary they would have per-step), and
/// before any access that reaches a tickable device (so MMIO reads see
/// exact countdown state and writes reprogram devices that are fully up
/// to date). The observable cycle-by-cycle behaviour is bit-identical
/// to unbatched ticking; [`Bus::set_batched_ticks`] switches back to
/// the per-instruction poll for differential testing.
pub struct Bus {
    mappings: Vec<Mapping>,
    /// `(base, size, mapping index)` of tickable devices, in base order.
    tickable: Vec<(u32, u32, usize)>,
    /// Lowest base and covering span of all tickable windows: a one-compare
    /// quick reject in front of the per-window scan (RAM traffic never
    /// pays the scan).
    tick_lo: u32,
    tick_span: u32,
    /// Index of the mapping the previous access resolved to; validated
    /// before use, so it is only ever a shortcut past the binary search.
    last_idx: usize,
    /// Whether [`Bus::lookup`] may use `last_idx`; off reproduces the
    /// plain binary search for differential runs.
    lookup_cache: bool,
    /// Cycles accumulated since devices were last ticked.
    pending: u64,
    /// Batch ticks (true) or poll devices every call (false).
    batched: bool,
    /// Accumulated-cycle threshold at which devices must be ticked;
    /// `None` = no device needs proactive ticking. Only meaningful when
    /// `deadline_valid`.
    deadline: Option<u64>,
    deadline_valid: bool,
    /// Pending-cycle threshold below which [`Bus::tick`] can return
    /// without touching any device state: `u64::MAX` = nothing will ever
    /// come due, `0` = the slow path must run (deadline stale, or
    /// unbatched). Derived from `deadline`/`deadline_valid`/`batched`.
    armed: u64,
    /// Interrupts surfaced by an access-triggered catch-up, delivered at
    /// the next [`Bus::tick`] (the same instruction boundary).
    stray_irqs: Vec<IrqRequest>,
    /// Bumped whenever memory contents may change outside the bus write
    /// path (host loads, host device access, remapping); caches built
    /// over memory contents must revalidate when this moves.
    host_gen: u64,
}

impl fmt::Debug for Bus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("Bus");
        for m in &self.mappings {
            d.field(
                m.device.name(),
                &format_args!("{:#010x}+{:#x}", m.base, m.size),
            );
        }
        d.finish()
    }
}

impl Default for Bus {
    fn default() -> Self {
        Bus {
            mappings: Vec::new(),
            tickable: Vec::new(),
            tick_lo: 0,
            tick_span: 0,
            last_idx: 0,
            lookup_cache: true,
            pending: 0,
            batched: true,
            deadline: None,
            deadline_valid: false,
            armed: 0,
            stray_irqs: Vec::new(),
            host_gen: 0,
        }
    }
}

impl Bus {
    /// Creates an empty bus.
    pub fn new() -> Self {
        Bus::default()
    }

    /// Maps `device` at `base`. The window size is taken from the device.
    pub fn map(&mut self, base: u32, device: Box<dyn Device>) -> Result<(), MapError> {
        let size = device.size();
        let end = base
            .checked_add(size)
            .ok_or(MapError::Wraps { base, size })?;
        for m in &self.mappings {
            if base < m.base + m.size && m.base < end {
                return Err(MapError::Overlap { base, size });
            }
        }
        // Flush first so a newly mapped device never receives cycles that
        // elapsed before it existed.
        self.catch_up();
        let pos = self.mappings.partition_point(|m| m.base < base);
        self.mappings.insert(pos, Mapping { base, size, device });
        self.rebuild_tickable();
        self.invalidate_deadline();
        self.host_gen += 1;
        Ok(())
    }

    fn rebuild_tickable(&mut self) {
        self.tickable = self
            .mappings
            .iter()
            .enumerate()
            .filter(|(_, m)| m.device.is_tickable())
            .map(|(i, m)| (m.base, m.size, i))
            .collect();
        self.tick_lo = self.tickable.first().map_or(0, |&(base, _, _)| base);
        self.tick_span = self
            .tickable
            .last()
            .map_or(0, |&(base, size, _)| base + size - self.tick_lo);
    }

    #[inline]
    fn touches_tickable(&self, addr: u32) -> bool {
        addr.wrapping_sub(self.tick_lo) < self.tick_span
            && self
                .tickable
                .iter()
                .any(|&(base, size, _)| addr.wrapping_sub(base) < size)
    }

    /// Delivers all accumulated cycles to the tickable devices now, so
    /// that an access observes exactly the state it would have seen under
    /// per-instruction ticking. Interrupts raised during catch-up are
    /// stashed and returned by the next [`Bus::tick`], i.e. at the same
    /// instruction boundary where per-step ticking would have raised them.
    fn catch_up(&mut self) {
        if self.pending == 0 {
            return;
        }
        let delivered = std::mem::take(&mut self.pending);
        for &(_, _, idx) in &self.tickable {
            if let Some(irq) = self.mappings[idx].device.tick(delivered) {
                self.stray_irqs.push(irq);
            }
        }
        self.invalidate_deadline();
    }

    fn refresh_deadline(&mut self) {
        let mut d: Option<u64> = None;
        for &(_, _, idx) in &self.tickable {
            if let Some(h) = self.mappings[idx].device.tick_hint() {
                d = Some(d.map_or(h, |cur| cur.min(h)));
            }
        }
        self.deadline = d;
        self.deadline_valid = true;
        self.armed = if self.batched {
            d.unwrap_or(u64::MAX)
        } else {
            0
        };
    }

    /// Marks the cached deadline (and the fast-exit threshold) stale.
    fn invalidate_deadline(&mut self) {
        self.deadline_valid = false;
        self.armed = 0;
    }

    /// Enables or disables batched ticking (enabled by default). Disabling
    /// flushes accumulated cycles so subsequent per-call ticks resume from
    /// an exact device state.
    /// Enables or disables the last-mapping lookup cache (a pure
    /// shortcut; results are identical either way).
    pub fn set_lookup_cache(&mut self, on: bool) {
        self.lookup_cache = on;
    }

    pub fn set_batched_ticks(&mut self, on: bool) {
        if !on {
            self.catch_up();
        }
        self.batched = on;
        self.invalidate_deadline();
    }

    /// Generation counter for host-side (out-of-band) memory mutation.
    ///
    /// Any path that can change memory contents without going through
    /// [`Bus::write32`]/[`Bus::write8`] — [`Bus::host_load`],
    /// [`Bus::device_mut`], [`Bus::map`] — bumps this counter. Callers
    /// that cache derived views of memory (e.g. predecoded instructions)
    /// compare it to detect staleness.
    pub fn host_gen(&self) -> u64 {
        self.host_gen
    }

    /// True if `addr` is backed by plain storage (see
    /// [`Device::stable_storage`]): safe to cache derived views of, with
    /// invalidation driven by bus writes and [`Bus::host_gen`].
    pub fn is_stable_memory(&self, addr: u32) -> bool {
        let idx = self.mappings.partition_point(|m| m.base <= addr);
        if idx == 0 {
            return false;
        }
        let m = &self.mappings[idx - 1];
        addr - m.base < m.size && m.device.stable_storage()
    }

    #[inline(always)]
    fn lookup(&mut self, addr: u32) -> Result<(&mut Mapping, u32), BusError> {
        // Accesses cluster heavily (straight-line code, stack traffic), so
        // retry the previous mapping before the binary search. The index
        // is range-validated, so a stale value after remapping only costs
        // the fallback.
        if self.lookup_cache {
            if let Some(m) = self.mappings.get(self.last_idx) {
                let off = addr.wrapping_sub(m.base);
                if off < m.size {
                    return Ok((&mut self.mappings[self.last_idx], off));
                }
            }
        }
        let idx = self.mappings.partition_point(|m| m.base <= addr);
        if idx == 0 {
            return Err(BusError::Unmapped { addr });
        }
        let m = &self.mappings[idx - 1];
        if addr - m.base >= m.size {
            return Err(BusError::Unmapped { addr });
        }
        let off = addr - m.base;
        self.last_idx = idx - 1;
        Ok((&mut self.mappings[idx - 1], off))
    }

    /// Reads an aligned 32-bit word at `addr`.
    #[inline(always)]
    pub fn read32(&mut self, addr: u32) -> Result<u32, BusError> {
        if !addr.is_multiple_of(4) {
            return Err(BusError::Misaligned { addr });
        }
        let t = self.touches_tickable(addr);
        if t {
            self.catch_up();
        }
        let res = {
            let (m, off) = self.lookup(addr)?;
            if off + 4 > m.size {
                return Err(BusError::Unmapped { addr });
            }
            m.device.read32(off).map_err(|e| rebase(e, m.base))
        };
        if t {
            self.invalidate_deadline();
        }
        res
    }

    /// Writes an aligned 32-bit word at `addr`.
    #[inline(always)]
    pub fn write32(&mut self, addr: u32, value: u32) -> Result<(), BusError> {
        if !addr.is_multiple_of(4) {
            return Err(BusError::Misaligned { addr });
        }
        let t = self.touches_tickable(addr);
        if t {
            self.catch_up();
        }
        let res = {
            let (m, off) = self.lookup(addr)?;
            if off + 4 > m.size {
                return Err(BusError::Unmapped { addr });
            }
            m.device.write32(off, value).map_err(|e| rebase(e, m.base))
        };
        if t {
            self.invalidate_deadline();
        }
        res
    }

    /// Reads one byte at `addr`.
    #[inline]
    pub fn read8(&mut self, addr: u32) -> Result<u8, BusError> {
        let t = self.touches_tickable(addr);
        if t {
            self.catch_up();
        }
        let res = {
            let (m, off) = self.lookup(addr)?;
            m.device.read8(off).map_err(|e| rebase(e, m.base))
        };
        if t {
            self.invalidate_deadline();
        }
        res
    }

    /// Writes one byte at `addr`.
    #[inline]
    pub fn write8(&mut self, addr: u32, value: u8) -> Result<(), BusError> {
        let t = self.touches_tickable(addr);
        if t {
            self.catch_up();
        }
        let res = {
            let (m, off) = self.lookup(addr)?;
            m.device.write8(off, value).map_err(|e| rebase(e, m.base))
        };
        if t {
            self.invalidate_deadline();
        }
        res
    }

    /// Advances device time by `cycles` and collects raised interrupts.
    ///
    /// With batching enabled, cycles accumulate until the earliest
    /// [`Device::tick_hint`] deadline is reached; devices then receive the
    /// whole accumulated span in one call, at exactly the instruction
    /// boundary where per-step ticking would first have made them fire.
    #[inline]
    pub fn tick(&mut self, cycles: u64) -> Vec<IrqRequest> {
        if self.tick_quick(cycles) {
            return Vec::new();
        }
        self.tick_slow()
    }

    /// Accounts `cycles` and returns true when nothing can be due and
    /// nothing is stashed — the common case, one compare against the
    /// precomputed threshold. On `false` the caller must run
    /// [`Bus::tick_slow`] to collect interrupts.
    ///
    /// A nonzero `armed` implies no stashed stray interrupts: strays are
    /// pushed only by [`Bus::catch_up`], which zeroes `armed`, and
    /// [`Bus::tick_slow`] drains them before re-arming.
    #[inline]
    pub fn tick_quick(&mut self, cycles: u64) -> bool {
        self.pending += cycles;
        self.pending < self.armed
    }

    /// Headroom before the next [`Bus::tick_quick`] could return false:
    /// cycles the core may account in a local register without crossing
    /// into the bus. Stale the moment anything on the bus is touched —
    /// device access, [`Bus::tick_slow`], catch-up — so callers must
    /// re-read it after any such operation and must flush their local
    /// balance into [`Bus::tick_quick`] *before* any access that can
    /// reach a tickable device.
    #[inline]
    pub fn tick_slack(&self) -> u64 {
        self.armed.saturating_sub(self.pending)
    }

    /// The full tick: refreshes the deadline, delivers accumulated
    /// cycles when due and drains stashed interrupts.
    pub fn tick_slow(&mut self) -> Vec<IrqRequest> {
        if !self.deadline_valid {
            self.refresh_deadline();
        }
        let due = !self.batched || self.deadline.is_some_and(|d| self.pending >= d);
        if due {
            let delivered = std::mem::take(&mut self.pending);
            let mut irqs = std::mem::take(&mut self.stray_irqs);
            for &(_, _, idx) in &self.tickable {
                if let Some(irq) = self.mappings[idx].device.tick(delivered) {
                    irqs.push(irq);
                }
            }
            self.refresh_deadline();
            irqs
        } else if self.stray_irqs.is_empty() {
            Vec::new()
        } else {
            std::mem::take(&mut self.stray_irqs)
        }
    }

    /// Host-side image load (bypasses read-only protections; models factory
    /// programming and loader copies observed externally).
    pub fn host_load(&mut self, addr: u32, bytes: &[u8]) -> bool {
        self.host_gen += 1;
        let t = self.touches_tickable(addr);
        if t {
            self.catch_up();
        }
        let ok = match self.lookup(addr) {
            Ok((m, off)) => m.device.host_load(off, bytes),
            Err(_) => false,
        };
        if t {
            self.invalidate_deadline();
        }
        ok
    }

    /// Fault-injection hook: flips bit `bit & 7` of the byte at `addr`
    /// and returns the new byte value. The write goes through the
    /// host-load path, so it bypasses read-only protections (modeling a
    /// physical upset, not a bus transaction) and bumps [`Bus::host_gen`]
    /// — any predecoded-instruction or grant caches built over the old
    /// contents invalidate before the next fetch.
    pub fn inject_bit_flip(&mut self, addr: u32, bit: u8) -> Result<u8, BusError> {
        let byte = self.read8(addr)?;
        let flipped = byte ^ (1 << (bit & 7));
        if !self.host_load(addr, &[flipped]) {
            return Err(BusError::Unmapped { addr });
        }
        Ok(flipped)
    }

    /// Looks up a device by name and concrete type for host inspection.
    ///
    /// The device is caught up with any accumulated cycles first, and the
    /// bus conservatively assumes the host mutates it (ticking deadlines
    /// and memory-content caches are invalidated).
    pub fn device_mut<T: 'static>(&mut self, name: &str) -> Option<&mut T> {
        self.catch_up();
        self.invalidate_deadline();
        self.host_gen += 1;
        self.mappings
            .iter_mut()
            .find(|m| m.device.name() == name)
            .and_then(|m| m.device.as_any().downcast_mut::<T>())
    }

    /// Deep-copies the bus — every mapped device plus the batching and
    /// cache bookkeeping — for snapshot/fork. Returns the name of the
    /// first non-snapshottable device on failure.
    ///
    /// The copy is observably identical to the original: accumulated
    /// (undelivered) tick cycles, stashed stray interrupts and the
    /// host-mutation generation all carry over, so a forked machine
    /// replays bit-identically to the original from the snapshot point.
    pub fn snapshot(&self) -> Result<Bus, &'static str> {
        let mut mappings = Vec::with_capacity(self.mappings.len());
        for m in &self.mappings {
            let device = m.device.snapshot().ok_or_else(|| m.device.name())?;
            mappings.push(Mapping {
                base: m.base,
                size: m.size,
                device,
            });
        }
        let mut bus = Bus {
            mappings,
            tickable: Vec::new(),
            tick_lo: 0,
            tick_span: 0,
            last_idx: self.last_idx,
            lookup_cache: self.lookup_cache,
            pending: self.pending,
            batched: self.batched,
            deadline: self.deadline,
            deadline_valid: self.deadline_valid,
            armed: self.armed,
            stray_irqs: self.stray_irqs.clone(),
            host_gen: self.host_gen,
        };
        bus.rebuild_tickable();
        Ok(bus)
    }

    /// Returns the `(base, size, name)` of every mapping, sorted by base.
    pub fn mappings(&self) -> Vec<(u32, u32, &'static str)> {
        self.mappings
            .iter()
            .map(|m| (m.base, m.size, m.device.name()))
            .collect()
    }

    /// Reads `len` consecutive bytes starting at `addr` — the host-side
    /// bulk read behind the Secure Loader's PROM table walk, campaign
    /// set-up, local attestation and the state digest. See
    /// [`Bus::read_into`].
    pub fn read_bytes(&mut self, addr: u32, len: u32) -> Result<Vec<u8>, BusError> {
        let mut buf = vec![0u8; len as usize];
        self.read_into(addr, &mut buf)?;
        Ok(buf)
    }

    /// Fills `buf` from consecutive bytes starting at `addr`, with the
    /// result of one [`Bus::read8`] per byte. A range that lies wholly
    /// inside one non-tickable mapping is one [`Device::read_bytes`]
    /// call (a page-slice copy for RAM/ROM, which never materializes a
    /// page); every other range — across a gap or a device end, or into
    /// a tickable device — takes the per-byte path, so the error and its
    /// address are exactly those of the first failing `read8`.
    pub fn read_into(&mut self, addr: u32, buf: &mut [u8]) -> Result<(), BusError> {
        if buf.is_empty() {
            return Ok(());
        }
        if let Ok((m, off)) = self.lookup(addr) {
            if buf.len() as u64 <= u64::from(m.size - off) && !m.device.is_tickable() {
                return m.device.read_bytes(off, buf).map_err(|e| rebase(e, m.base));
            }
        }
        for (i, b) in buf.iter_mut().enumerate() {
            *b = self.read8(addr + i as u32)?;
        }
        Ok(())
    }

    /// Host-side bytes actually materialized across all mapped devices
    /// (see [`Device::resident_bytes`]). Diagnostic only — never part of
    /// any digest.
    pub fn resident_bytes(&self) -> u64 {
        self.mappings
            .iter()
            .map(|m| m.device.resident_bytes())
            .sum()
    }

    /// Total addressable bytes across all mapped devices.
    pub fn addressable_bytes(&self) -> u64 {
        self.mappings.iter().map(|m| u64::from(m.size)).sum()
    }
}

fn rebase(e: BusError, base: u32) -> BusError {
    // Devices report offsets; convert to absolute addresses for callers.
    match e {
        BusError::Unmapped { addr } => BusError::Unmapped { addr: base + addr },
        BusError::Misaligned { addr } => BusError::Misaligned { addr: base + addr },
        BusError::ReadOnly { addr } => BusError::ReadOnly { addr: base + addr },
        BusError::BadWidth { addr } => BusError::BadWidth { addr: base + addr },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ram::{Ram, Rom};

    fn bus_with_ram() -> Bus {
        let mut bus = Bus::new();
        bus.map(0x1000, Box::new(Ram::new("sram", 0x100))).unwrap();
        bus.map(0x0, Box::new(Rom::new(0x100))).unwrap();
        bus
    }

    #[test]
    fn routes_to_correct_device() {
        let mut bus = bus_with_ram();
        bus.write32(0x1010, 42).unwrap();
        assert_eq!(bus.read32(0x1010), Ok(42));
        assert_eq!(bus.write32(0x10, 1), Err(BusError::ReadOnly { addr: 0x10 }));
    }

    #[test]
    fn unmapped_and_misaligned() {
        let mut bus = bus_with_ram();
        assert_eq!(bus.read32(0x5000), Err(BusError::Unmapped { addr: 0x5000 }));
        assert_eq!(
            bus.read32(0x1002),
            Err(BusError::Misaligned { addr: 0x1002 })
        );
        // Last word of the window is fine; one past is not.
        assert!(bus.read32(0x10fc).is_ok());
        assert_eq!(bus.read32(0x1100), Err(BusError::Unmapped { addr: 0x1100 }));
    }

    #[test]
    fn overlap_rejected() {
        let mut bus = bus_with_ram();
        let e = bus.map(0x10f0, Box::new(Ram::new("x", 0x100))).unwrap_err();
        assert_eq!(
            e,
            MapError::Overlap {
                base: 0x10f0,
                size: 0x100
            }
        );
        // Adjacent is fine.
        bus.map(0x1100, Box::new(Ram::new("y", 0x100))).unwrap();
    }

    #[test]
    fn wrap_rejected() {
        let mut bus = Bus::new();
        let e = bus
            .map(0xffff_ff00, Box::new(Ram::new("z", 0x200)))
            .unwrap_err();
        assert!(matches!(e, MapError::Wraps { .. }));
    }

    #[test]
    fn byte_access_straddles_words() {
        let mut bus = bus_with_ram();
        bus.write8(0x1001, 0xbe).unwrap();
        assert_eq!(bus.read32(0x1000), Ok(0x0000_be00));
    }

    #[test]
    fn host_load_bypasses_rom_protection() {
        let mut bus = bus_with_ram();
        assert!(bus.host_load(0x4, &[0xaa, 0xbb, 0xcc, 0xdd]));
        assert_eq!(bus.read32(0x4), Ok(0xddcc_bbaa));
    }

    #[test]
    fn device_mut_downcast() {
        let mut bus = bus_with_ram();
        bus.write32(0x1000, 7).unwrap();
        let ram: &mut Ram = bus.device_mut("sram").unwrap();
        assert_eq!(ram.bytes()[0], 7);
        assert!(
            bus.device_mut::<Rom>("sram").is_none(),
            "wrong type must not downcast"
        );
        assert!(bus.device_mut::<Ram>("nope").is_none());
    }

    #[test]
    fn mappings_sorted() {
        let bus = bus_with_ram();
        let maps = bus.mappings();
        assert_eq!(maps[0].0, 0x0);
        assert_eq!(maps[1].0, 0x1000);
    }

    /// A minimal periodic device for batching tests: fires IRQ `line` 7
    /// every `period` cycles, exposes its countdown at offset 0, and
    /// counts how many times `tick` was actually invoked.
    #[derive(Clone)]
    struct TestTimer {
        period: u64,
        count: u64,
        tick_calls: u64,
    }

    impl TestTimer {
        fn new(period: u64) -> Self {
            TestTimer {
                period,
                count: period,
                tick_calls: 0,
            }
        }
    }

    impl Device for TestTimer {
        fn name(&self) -> &'static str {
            "ttimer"
        }
        fn size(&self) -> u32 {
            4
        }
        fn read32(&mut self, _off: u32) -> Result<u32, BusError> {
            Ok(self.count as u32)
        }
        fn write32(&mut self, _off: u32, value: u32) -> Result<(), BusError> {
            self.count = value as u64;
            Ok(())
        }
        fn tick(&mut self, cycles: u64) -> Option<IrqRequest> {
            self.tick_calls += 1;
            if self.count > cycles {
                self.count -= cycles;
                return None;
            }
            let overshoot = cycles - self.count;
            self.count = self.period - (overshoot % self.period);
            Some(IrqRequest {
                line: 7,
                handler: None,
            })
        }
        fn is_tickable(&self) -> bool {
            true
        }
        fn tick_hint(&self) -> Option<u64> {
            Some(self.count)
        }
        fn snapshot(&self) -> Option<Box<dyn Device>> {
            Some(Box::new(self.clone()))
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    use std::any::Any;

    fn timer_bus(batched: bool) -> Bus {
        let mut bus = Bus::new();
        bus.map(0x2000, Box::new(TestTimer::new(10))).unwrap();
        bus.set_batched_ticks(batched);
        bus
    }

    #[test]
    fn batched_irqs_fire_at_identical_boundaries() {
        let mut batched = timer_bus(true);
        let mut unbatched = timer_bus(false);
        for step in 0..100u32 {
            let a = batched.tick(3);
            let b = unbatched.tick(3);
            assert_eq!(a, b, "IRQ divergence at step {step}");
        }
        let calls_batched = batched
            .device_mut::<TestTimer>("ttimer")
            .unwrap()
            .tick_calls;
        let calls_unbatched = unbatched
            .device_mut::<TestTimer>("ttimer")
            .unwrap()
            .tick_calls;
        assert!(
            calls_batched < calls_unbatched,
            "batching must reduce tick calls ({calls_batched} vs {calls_unbatched})"
        );
    }

    #[test]
    fn access_catches_device_up_mid_interval() {
        let mut bus = timer_bus(true);
        assert!(bus.tick(3).is_empty());
        assert!(bus.tick(4).is_empty());
        // 7 cycles elapsed but below the period-10 deadline: the device
        // has not been polled yet, so the read must trigger catch-up.
        assert_eq!(bus.read32(0x2000), Ok(3));
    }

    #[test]
    fn reprogramming_after_catch_up_moves_deadline() {
        let mut bus = timer_bus(true);
        assert!(bus.tick(4).is_empty());
        // Reprogram the countdown mid-interval; the 4 already-elapsed
        // cycles were delivered before the write, so the new deadline is
        // 100 cycles from now, not from the last flush.
        bus.write32(0x2000, 100).unwrap();
        for _ in 0..99 {
            assert!(bus.tick(1).is_empty());
        }
        assert_eq!(bus.tick(1).len(), 1, "fires exactly 100 cycles later");
    }

    #[test]
    fn host_gen_tracks_out_of_band_mutation() {
        let mut bus = bus_with_ram();
        let g0 = bus.host_gen();
        bus.read32(0x1000).unwrap();
        bus.write32(0x1000, 1).unwrap();
        assert_eq!(bus.host_gen(), g0, "bus accesses are in-band");
        bus.host_load(0x4, &[1, 2, 3, 4]);
        assert!(bus.host_gen() > g0, "host_load is out-of-band");
        let g1 = bus.host_gen();
        let _: Option<&mut Ram> = bus.device_mut("sram");
        assert!(bus.host_gen() > g1, "device_mut is out-of-band");
        let g2 = bus.host_gen();
        bus.map(0x9000, Box::new(Ram::new("x", 0x100))).unwrap();
        assert!(bus.host_gen() > g2, "mapping is out-of-band");
    }

    #[test]
    fn bit_flip_is_out_of_band_and_involutive() {
        let mut bus = bus_with_ram();
        bus.write32(0x1000, 0).unwrap();
        let g0 = bus.host_gen();
        assert_eq!(bus.inject_bit_flip(0x1000, 3).unwrap(), 0b1000);
        assert!(bus.host_gen() > g0, "a flip must invalidate host caches");
        assert_eq!(bus.read8(0x1000).unwrap(), 0b1000);
        // Bit index wraps modulo 8; flipping the same bit restores.
        assert_eq!(bus.inject_bit_flip(0x1000, 3 + 8).unwrap(), 0);
        assert!(matches!(
            bus.inject_bit_flip(0xdead_0000, 0),
            Err(BusError::Unmapped { .. })
        ));
    }

    #[test]
    fn stable_memory_classification() {
        let mut bus = bus_with_ram();
        bus.map(0x2000, Box::new(TestTimer::new(10))).unwrap();
        assert!(bus.is_stable_memory(0x1000), "RAM is stable storage");
        assert!(bus.is_stable_memory(0x0), "ROM is stable storage");
        assert!(!bus.is_stable_memory(0x2000), "devices are not");
        assert!(!bus.is_stable_memory(0x5000), "unmapped is not");
    }

    #[test]
    fn snapshot_copies_contents_and_tick_state() {
        let mut bus = bus_with_ram();
        bus.write32(0x1010, 0xfeed).unwrap();
        let mut snap = bus.snapshot().expect("ram/rom snapshot");
        assert_eq!(snap.read32(0x1010), Ok(0xfeed));
        assert_eq!(snap.host_gen(), bus.host_gen());
        // Divergence after the fork is invisible to the original.
        snap.write32(0x1010, 1).unwrap();
        assert_eq!(bus.read32(0x1010), Ok(0xfeed));
    }

    #[test]
    fn snapshot_carries_pending_cycles_exactly() {
        let mut bus = timer_bus(true);
        assert!(bus.tick(7).is_empty()); // 3 cycles short of the period
        let mut snap = bus.snapshot().expect("test timer snapshots");
        let irqs_snap: Vec<_> = (0..5).map(|_| snap.tick(1).len()).collect();
        let irqs_orig: Vec<_> = (0..5).map(|_| bus.tick(1).len()).collect();
        assert_eq!(irqs_snap, irqs_orig, "pending cycles must carry over");
    }

    #[test]
    fn snapshot_refuses_unsupported_devices() {
        struct NoSnap;
        impl Device for NoSnap {
            fn name(&self) -> &'static str {
                "nosnap"
            }
            fn size(&self) -> u32 {
                4
            }
            fn read32(&mut self, _off: u32) -> Result<u32, BusError> {
                Ok(0)
            }
            fn write32(&mut self, _off: u32, _value: u32) -> Result<(), BusError> {
                Ok(())
            }
            fn as_any(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut bus = Bus::new();
        bus.map(0x0, Box::new(NoSnap)).unwrap();
        assert_eq!(bus.snapshot().unwrap_err(), "nosnap");
    }

    #[test]
    fn read_bytes_spans_devices_only_within_one() {
        let mut bus = bus_with_ram();
        bus.write32(0x1000, 0x0403_0201).unwrap();
        assert_eq!(bus.read_bytes(0x1000, 4).unwrap(), vec![1, 2, 3, 4]);
        assert!(
            bus.read_bytes(0xfe, 4).is_err(),
            "crosses into unmapped gap"
        );
    }
}
