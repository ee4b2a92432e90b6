//! A/B firmware slots, anti-rollback protection and the retained boot
//! log.
//!
//! TrustLite's field-update story (Sections 2.3, 5.3) is *programmable*
//! protection: a designated updater may rewrite another trustlet's code
//! while the OS cannot. This module adds the fleet-operations half of
//! that story — the part that makes an update survivable:
//!
//! * **Slot A** is the factory image in PROM, always bootable (so a
//!   device can never brick: the Secure Loader's fallback path needs no
//!   writable state at all).
//! * **Slot B** is a staged image in untrusted bulk DRAM
//!   ([`staging_base`]), guarded by a CRC-32 and a monotonic version
//!   word. Authenticity is *not* established at staging time — the
//!   commit gate is an attested re-measurement after the first boot of
//!   the new image.
//! * The **update block** lives in retained RAM (`map::RETRAM_BASE`):
//!   a tiny always-on region that survives warm resets and is cleared
//!   only on cold boot. It records the slot state machine
//!   ([`SlotState`]), the anti-rollback floor (`rollback_min`), the
//!   boot-attempt counter, and a CRC-guarded ring of boot-log entries
//!   ([`BootLogEntry`]) — the trail an operator reads after a bad
//!   campaign. No MPU rule covers retained RAM, so software (trusted or
//!   not) can never touch it; only the Secure Loader and the host use
//!   it via the hardware access paths.
//!
//! At every reset the Secure Loader consults the block
//! ([`boot_decision`]): a `Written` slot boots iff its CRC holds, its
//! version is strictly above the anti-rollback floor, and fewer than
//! [`MAX_BOOT_ATTEMPTS`] boots have already been burned on it — anything
//! else rolls back to slot A and records the verdict. A `Confirmed`
//! slot keeps booting as long as its CRC holds. The decision is a pure
//! function of PROM, DRAM and the retained block, so fleet replays are
//! deterministic.

use trustlite_cpu::SystemBus;
use trustlite_crypto::crc32;
use trustlite_mem::map;

/// Magic word marking an initialized update block ("UPD1").
pub const UPDATE_MAGIC: u32 = 0x5550_4431;

/// Bytes reserved per trustlet inside retained RAM.
pub const BLOCK_STRIDE: u32 = 0x100;

/// Boot-log ring capacity (entries retained per trustlet).
pub const LOG_CAP: usize = 16;

/// Words per serialized boot-log entry.
const LOG_ENTRY_WORDS: u32 = 3;

/// Header words before the log ring (magic, state, version,
/// rollback_min, staged_len, staged_crc, attempts, log_total).
const HEADER_WORDS: u32 = 8;

/// Total serialized words excluding the guard CRC.
const BODY_WORDS: u32 = HEADER_WORDS + LOG_ENTRY_WORDS * LOG_CAP as u32;

/// Staged images (slot B) live in the upper half of untrusted DRAM.
pub const STAGING_BASE: u32 = map::DRAM_BASE + map::DRAM_SIZE / 2;

/// Bytes reserved per trustlet in the staging area.
pub const STAGING_STRIDE: u32 = 0x4000;

/// Boot attempts allowed on a `Written` slot before the loader falls
/// back to slot A for good.
pub const MAX_BOOT_ATTEMPTS: u32 = 3;

/// The retained slot state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// No update in flight; slot A (PROM) boots.
    Idle,
    /// A staged image is written and awaiting its confirmation boots.
    Written,
    /// The staged image passed the commit gate; slot B is the running
    /// image and `rollback_min` was raised to its version.
    Confirmed,
    /// The staged image was abandoned; slot A boots until a fresh stage.
    RolledBack,
}

impl SlotState {
    fn code(self) -> u32 {
        match self {
            SlotState::Idle => 0,
            SlotState::Written => 1,
            SlotState::Confirmed => 2,
            SlotState::RolledBack => 3,
        }
    }

    fn from_code(code: u32) -> Option<SlotState> {
        Some(match code {
            0 => SlotState::Idle,
            1 => SlotState::Written,
            2 => SlotState::Confirmed,
            3 => SlotState::RolledBack,
            _ => return None,
        })
    }
}

/// Why a boot went the way it did — the log's vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BootVerdict {
    /// Slot B was tried (attempt counter recorded).
    StagedBoot,
    /// The commit gate passed and the slot was confirmed.
    Committed,
    /// The staged image failed its CRC check.
    CrcReject,
    /// The staged version did not exceed the anti-rollback floor.
    StaleReject,
    /// Too many boots were burned without a confirmation.
    AttemptsExhausted,
    /// The orchestrator abandoned the update (commit gate kept failing).
    ForcedRollback,
}

impl BootVerdict {
    fn code(self) -> u32 {
        match self {
            BootVerdict::StagedBoot => 1,
            BootVerdict::Committed => 2,
            BootVerdict::CrcReject => 3,
            BootVerdict::StaleReject => 4,
            BootVerdict::AttemptsExhausted => 5,
            BootVerdict::ForcedRollback => 6,
        }
    }

    fn from_code(code: u32) -> Option<BootVerdict> {
        Some(match code {
            1 => BootVerdict::StagedBoot,
            2 => BootVerdict::Committed,
            3 => BootVerdict::CrcReject,
            4 => BootVerdict::StaleReject,
            5 => BootVerdict::AttemptsExhausted,
            6 => BootVerdict::ForcedRollback,
            _ => return None,
        })
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            BootVerdict::StagedBoot => "staged_boot",
            BootVerdict::Committed => "committed",
            BootVerdict::CrcReject => "crc_reject",
            BootVerdict::StaleReject => "stale_reject",
            BootVerdict::AttemptsExhausted => "attempts_exhausted",
            BootVerdict::ForcedRollback => "forced_rollback",
        }
    }
}

/// One retained boot-log record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BootLogEntry {
    /// Which slot the record concerns (0 = A/PROM, 1 = B/staged).
    pub slot: u8,
    /// What happened.
    pub verdict: BootVerdict,
    /// The boot-attempt counter at the time.
    pub attempt: u32,
}

/// The deserialized retained update block for one trustlet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateBlock {
    /// Slot state machine position.
    pub state: SlotState,
    /// Version of the staged image.
    pub version: u32,
    /// Anti-rollback floor: a `Written` image boots only if its version
    /// is strictly greater. Raised (never lowered) on confirmation.
    pub rollback_min: u32,
    /// Staged image length in bytes.
    pub staged_len: u32,
    /// CRC-32 the staged image must match at every boot.
    pub staged_crc: u32,
    /// Boots burned on the `Written` image so far.
    pub attempts: u32,
    /// Total log entries ever appended (the ring keeps the last
    /// [`LOG_CAP`]).
    pub log_total: u32,
    /// Retained log entries, oldest first (at most [`LOG_CAP`]).
    pub log: Vec<BootLogEntry>,
}

impl UpdateBlock {
    /// A fresh block with no history.
    pub fn new() -> UpdateBlock {
        UpdateBlock {
            state: SlotState::Idle,
            version: 0,
            rollback_min: 0,
            staged_len: 0,
            staged_crc: 0,
            attempts: 0,
            log_total: 0,
            log: Vec::new(),
        }
    }

    /// Appends a log entry, letting the ring drop the oldest when full.
    pub fn push_log(&mut self, slot: u8, verdict: BootVerdict, attempt: u32) {
        if self.log.len() == LOG_CAP {
            self.log.remove(0);
        }
        self.log.push(BootLogEntry {
            slot,
            verdict,
            attempt,
        });
        self.log_total += 1;
    }
}

impl Default for UpdateBlock {
    fn default() -> Self {
        UpdateBlock::new()
    }
}

/// Base address of trustlet `tt_index`'s update block in retained RAM.
pub fn block_base(tt_index: u32) -> u32 {
    debug_assert!((tt_index + 1) * BLOCK_STRIDE <= map::RETRAM_SIZE);
    map::RETRAM_BASE + tt_index * BLOCK_STRIDE
}

/// Base address of trustlet `tt_index`'s staging area in DRAM.
pub fn staging_base(tt_index: u32) -> u32 {
    STAGING_BASE + tt_index * STAGING_STRIDE
}

fn read_words(sys: &mut SystemBus, base: u32, n: u32) -> Option<Vec<u32>> {
    (0..n).map(|i| sys.hw_read32(base + 4 * i).ok()).collect()
}

/// Reads and validates trustlet `tt_index`'s update block. Returns
/// `None` when the block was never written (cold boot), the magic is
/// wrong, or the guard CRC does not hold — all treated by callers as
/// "no update in flight".
pub fn read_block(sys: &mut SystemBus, tt_index: u32) -> Option<UpdateBlock> {
    let base = block_base(tt_index);
    let words = read_words(sys, base, BODY_WORDS + 1)?;
    if words[0] != UPDATE_MAGIC {
        return None;
    }
    let mut body = Vec::with_capacity(4 * BODY_WORDS as usize);
    for w in &words[..BODY_WORDS as usize] {
        body.extend_from_slice(&w.to_le_bytes());
    }
    if crc32(&body) != words[BODY_WORDS as usize] {
        return None;
    }
    let state = SlotState::from_code(words[1])?;
    let log_total = words[7];
    let kept = (log_total as usize).min(LOG_CAP);
    let mut log = Vec::with_capacity(kept);
    // Ring: entry i (0-based, global) lives at slot i % LOG_CAP; rebuild
    // oldest-first.
    let first = log_total as usize - kept;
    for i in first..log_total as usize {
        let at = HEADER_WORDS as usize + LOG_ENTRY_WORDS as usize * (i % LOG_CAP);
        let verdict = BootVerdict::from_code(words[at + 1])?;
        log.push(BootLogEntry {
            slot: words[at] as u8,
            verdict,
            attempt: words[at + 2],
        });
    }
    Some(UpdateBlock {
        state,
        version: words[2],
        rollback_min: words[3],
        staged_len: words[4],
        staged_crc: words[5],
        attempts: words[6],
        log_total,
        log,
    })
}

/// Serializes `block` into trustlet `tt_index`'s retained slot,
/// recomputing the guard CRC. Returns false if retained RAM is not
/// mapped (never the case on a built platform).
pub fn write_block(sys: &mut SystemBus, tt_index: u32, block: &UpdateBlock) -> bool {
    let base = block_base(tt_index);
    let mut words = vec![0u32; BODY_WORDS as usize + 1];
    words[0] = UPDATE_MAGIC;
    words[1] = block.state.code();
    words[2] = block.version;
    words[3] = block.rollback_min;
    words[4] = block.staged_len;
    words[5] = block.staged_crc;
    words[6] = block.attempts;
    words[7] = block.log_total;
    let kept = block.log.len().min(LOG_CAP);
    let first = block.log_total as usize - kept;
    for (k, e) in block.log.iter().enumerate() {
        let i = first + k;
        let at = HEADER_WORDS as usize + LOG_ENTRY_WORDS as usize * (i % LOG_CAP);
        words[at] = u32::from(e.slot);
        words[at + 1] = e.verdict.code();
        words[at + 2] = e.attempt;
    }
    let mut body = Vec::with_capacity(4 * BODY_WORDS as usize);
    for w in &words[..BODY_WORDS as usize] {
        body.extend_from_slice(&w.to_le_bytes());
    }
    words[BODY_WORDS as usize] = crc32(&body);
    for (i, w) in words.iter().enumerate() {
        if sys.hw_write32(base + 4 * i as u32, *w).is_err() {
            return false;
        }
    }
    true
}

/// Reads `len` staged bytes for trustlet `tt_index` out of DRAM.
///
/// The staging area is plain DRAM, so this is one bulk bus read over
/// the whole words the image occupies.
pub fn read_staged(sys: &mut SystemBus, tt_index: u32, len: u32) -> Option<Vec<u8>> {
    let mut out = sys
        .bus
        .read_bytes(staging_base(tt_index), len.next_multiple_of(4))
        .ok()?;
    out.truncate(len as usize);
    Some(out)
}

/// Writes `code` into trustlet `tt_index`'s staging area.
pub fn write_staged(sys: &mut SystemBus, tt_index: u32, code: &[u8]) -> bool {
    let base = staging_base(tt_index);
    for (i, chunk) in code.chunks(4).enumerate() {
        let mut w = [0u8; 4];
        w[..chunk.len()].copy_from_slice(chunk);
        if sys
            .hw_write32(base + 4 * i as u32, u32::from_le_bytes(w))
            .is_err()
        {
            return false;
        }
    }
    true
}

/// What the Secure Loader decided for one trustlet at this boot.
#[derive(Debug, Clone)]
pub struct BootChoice {
    /// The image bytes to copy and measure (slot B when `staged`).
    pub code: Vec<u8>,
    /// True when slot B (the staged image) was chosen.
    pub staged: bool,
    /// The rollback verdict recorded at this boot, if the staged image
    /// was rejected.
    pub rollback: Option<BootVerdict>,
    /// True when a valid update block was found — the loader then
    /// zero-fills the code region past the image so slot switches never
    /// leave bytes of the other image behind in SRAM (the measurement is
    /// over the zero-padded region).
    pub update_active: bool,
}

/// The Secure Loader's A/B decision for trustlet `tt_index`: consult
/// the retained block, validate the staged image, fall back to the
/// always-bootable PROM image (`primary`) on any doubt, and record what
/// happened in the retained log. Pure in the device's memory state.
pub fn boot_decision(
    sys: &mut SystemBus,
    tt_index: u32,
    primary: &[u8],
    code_size: u32,
) -> BootChoice {
    let Some(mut block) = read_block(sys, tt_index) else {
        return BootChoice {
            code: primary.to_vec(),
            staged: false,
            rollback: None,
            update_active: false,
        };
    };
    let primary_choice = |rollback| BootChoice {
        code: primary.to_vec(),
        staged: false,
        rollback,
        update_active: true,
    };
    match block.state {
        SlotState::Idle | SlotState::RolledBack => primary_choice(None),
        SlotState::Written => {
            let staged = (block.staged_len > 0 && block.staged_len <= code_size)
                .then(|| read_staged(sys, tt_index, block.staged_len))
                .flatten();
            let verdict = match &staged {
                None => Some(BootVerdict::CrcReject),
                Some(bytes) if crc32(bytes) != block.staged_crc => Some(BootVerdict::CrcReject),
                Some(_) if block.version <= block.rollback_min => Some(BootVerdict::StaleReject),
                Some(_) if block.attempts >= MAX_BOOT_ATTEMPTS => {
                    Some(BootVerdict::AttemptsExhausted)
                }
                Some(_) => None,
            };
            match verdict {
                Some(v) => {
                    block.state = SlotState::RolledBack;
                    block.push_log(0, v, block.attempts);
                    write_block(sys, tt_index, &block);
                    primary_choice(Some(v))
                }
                None => {
                    block.attempts += 1;
                    block.push_log(1, BootVerdict::StagedBoot, block.attempts);
                    write_block(sys, tt_index, &block);
                    BootChoice {
                        code: staged.expect("validated above"),
                        staged: true,
                        rollback: None,
                        update_active: true,
                    }
                }
            }
        }
        SlotState::Confirmed => {
            let staged = (block.staged_len > 0 && block.staged_len <= code_size)
                .then(|| read_staged(sys, tt_index, block.staged_len))
                .flatten();
            match staged {
                Some(bytes) if crc32(&bytes) == block.staged_crc => BootChoice {
                    code: bytes,
                    staged: true,
                    rollback: None,
                    update_active: true,
                },
                // A confirmed image that no longer passes its CRC (bulk
                // memory decayed or was attacked) rolls back too: slot A
                // is the only image with a trust anchor left.
                _ => {
                    block.state = SlotState::RolledBack;
                    block.push_log(0, BootVerdict::CrcReject, block.attempts);
                    write_block(sys, tt_index, &block);
                    primary_choice(Some(BootVerdict::CrcReject))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_state_and_verdict_roundtrip() {
        for s in [
            SlotState::Idle,
            SlotState::Written,
            SlotState::Confirmed,
            SlotState::RolledBack,
        ] {
            assert_eq!(SlotState::from_code(s.code()), Some(s));
        }
        assert_eq!(SlotState::from_code(17), None);
        for v in [
            BootVerdict::StagedBoot,
            BootVerdict::Committed,
            BootVerdict::CrcReject,
            BootVerdict::StaleReject,
            BootVerdict::AttemptsExhausted,
            BootVerdict::ForcedRollback,
        ] {
            assert_eq!(BootVerdict::from_code(v.code()), Some(v));
            assert!(!v.label().is_empty());
        }
        assert_eq!(BootVerdict::from_code(0), None);
    }

    #[test]
    fn log_ring_keeps_the_most_recent_entries() {
        let mut b = UpdateBlock::new();
        for i in 0..(LOG_CAP as u32 + 5) {
            b.push_log(1, BootVerdict::StagedBoot, i);
        }
        assert_eq!(b.log.len(), LOG_CAP);
        assert_eq!(b.log_total, LOG_CAP as u32 + 5);
        assert_eq!(b.log[0].attempt, 5, "oldest surviving entry");
        assert_eq!(b.log.last().unwrap().attempt, LOG_CAP as u32 + 4);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn blocks_fit_retained_ram() {
        assert!(4 * (BODY_WORDS + 1) <= BLOCK_STRIDE);
        assert!(crate::layout::MAX_TRUSTLETS * BLOCK_STRIDE <= map::RETRAM_SIZE);
    }
}
