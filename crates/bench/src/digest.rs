//! Architectural-state digest shared by the determinism regression, the
//! throughput harness and the fleet engine (which concatenates one per
//! device, in device order, into the fleet digest).
//!
//! All of them need the same notion of "the machine ended in the same
//! place": cycle and instruction counters, the full register file, and
//! the first pages of SRAM (where every macro workload keeps its mutable
//! state).
//! Anything the fast paths could corrupt without tripping a counter
//! comparison — a stale predecoded word, a mis-replayed store — shows up
//! here as a digest mismatch.

use trustlite::platform::Platform;
use trustlite_crypto::sha256;

/// Digest of the architectural state plus the first pages of SRAM.
pub fn state_digest(p: &mut Platform) -> [u8; 32] {
    let mut blob = Vec::new();
    blob.extend_from_slice(&p.machine.cycles.to_le_bytes());
    blob.extend_from_slice(&p.machine.instret.to_le_bytes());
    for g in p.machine.regs.gprs {
        blob.extend_from_slice(&g.to_le_bytes());
    }
    blob.extend_from_slice(&p.machine.regs.sp.to_le_bytes());
    blob.extend_from_slice(&p.machine.regs.ip.to_le_bytes());
    let sram = p
        .machine
        .sys
        .bus
        .read_bytes(trustlite_mem::map::SRAM_BASE, 0x4000)
        .expect("sram readable");
    blob.extend_from_slice(&sram);
    sha256(&blob)
}
