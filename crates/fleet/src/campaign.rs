//! Fleet-scale firmware-update campaigns.
//!
//! The orchestrator drives a staged A/B-slot rollout over the whole
//! fleet: a canary wave stages the new image on a configurable percent
//! of devices, the remaining devices ramp only once every canary has
//! resolved, and each device walks a small per-device state machine
//! (`Idle → Staged → Written → Rebooted → Confirmed | RolledBack`).
//! The commit gate is an *attested re-measurement*: after the update
//! reboot the verifier challenges the device and confirms the slot only
//! when the response proves the patched measurement under the device's
//! enrolment key. A circuit breaker stops staging new devices once the
//! rollback count exceeds the failure budget.
//!
//! Every campaign action runs in phase B on worker 0, in device order,
//! so campaign outcomes are bit-identical for any worker count — the
//! same argument that makes the attestation fabric deterministic.

use trustlite::attest;
use trustlite::update::SlotState;
use trustlite::TrustliteError;
use trustlite_chaos::UpdateFault;
use trustlite_crypto::sha256;
use trustlite_obs::MetricsRegistry;

use crate::engine::DeviceSim;

/// Tuning knobs of one rollout campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Percent of the fleet staged in the canary wave (at least one
    /// device; 100 stages everyone immediately).
    pub canary_pct: u32,
    /// Rollbacks tolerated before the circuit breaker stops staging
    /// *new* devices (in-flight devices still resolve).
    pub failure_budget: u32,
    /// Commit-gate attempts per device before the orchestrator forces a
    /// rollback (guarantees every staged device reaches a terminal
    /// state even when its attestations never verify).
    pub max_confirm_attempts: u32,
    /// Version word of the campaign image (must exceed the fleet's
    /// anti-rollback floor to boot).
    pub version: u32,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            canary_pct: 25,
            failure_budget: 8,
            max_confirm_attempts: 3,
            version: 2,
        }
    }
}

/// Where one device stands in the rollout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateState {
    /// Not yet part of an open wave.
    Idle,
    /// Selected by a wave; the image is written at the next boundary.
    Staged,
    /// Image staged in DRAM, retained block armed; the update-window
    /// faults land here. Reboots at the next boundary.
    Written,
    /// Rebooted into the update; awaiting the attested re-measurement
    /// commit gate.
    Rebooted,
    /// Commit gate passed; the slot is confirmed and the anti-rollback
    /// floor raised.
    Confirmed,
    /// The device fell back to slot A — the Secure Loader rejected the
    /// staged image, or the orchestrator abandoned the update.
    RolledBack,
}

impl UpdateState {
    /// Fixed digest encoding (campaign bytes are only hashed when a
    /// campaign is configured, preserving non-campaign digests).
    pub(crate) fn code(self) -> u8 {
        match self {
            UpdateState::Idle => 0,
            UpdateState::Staged => 1,
            UpdateState::Written => 2,
            UpdateState::Rebooted => 3,
            UpdateState::Confirmed => 4,
            UpdateState::RolledBack => 5,
        }
    }

    /// Short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            UpdateState::Idle => "idle",
            UpdateState::Staged => "staged",
            UpdateState::Written => "written",
            UpdateState::Rebooted => "rebooted",
            UpdateState::Confirmed => "confirmed",
            UpdateState::RolledBack => "rolled_back",
        }
    }

    /// True once the device can make no further campaign progress.
    pub fn is_terminal(self) -> bool {
        matches!(self, UpdateState::Confirmed | UpdateState::RolledBack)
    }
}

/// Derives the commit-gate nonce for device `id` in `round` (its own
/// domain, so gate challenges never collide with the attestation
/// fabric's nonces).
fn gate_nonce(fleet_seed: u64, id: u32, round: u64) -> [u8; 16] {
    let mut blob = Vec::with_capacity(40);
    blob.extend_from_slice(b"tl-fleet-campaign");
    blob.extend_from_slice(&fleet_seed.to_le_bytes());
    blob.extend_from_slice(&id.to_le_bytes());
    blob.extend_from_slice(&round.to_le_bytes());
    let h = sha256(&blob);
    let mut nonce = [0u8; 16];
    nonce.copy_from_slice(&h[..16]);
    nonce
}

/// The orchestrator's whole mutable state. Only worker 0 touches it, in
/// device order at round boundaries.
pub(crate) struct CampaignState {
    pub cfg: CampaignConfig,
    /// The trustlet being updated (first row of the trustlet table).
    pub target: String,
    /// The campaign image: the PROM image plus one appended, never
    /// executed marker word — behavior-identical, measurement-distinct.
    patched_image: Vec<u8>,
    /// Reference measurements while slot A is active.
    expected_primary: Vec<[u8; 32]>,
    /// Reference measurements once the staged slot is active (the
    /// target's entry replaced by the patched region measurement).
    expected_patched: Vec<[u8; 32]>,
    /// Per-device rollout position.
    pub states: Vec<UpdateState>,
    /// Per-device failed commit-gate attempts.
    gate_attempts: Vec<u32>,
    /// Which reference the device's *current boot* reports (updated at
    /// the end of each device's phase-B step, i.e. the state the next
    /// round's responses are produced under).
    patched_active: Vec<bool>,
    /// Devices the verifier quarantined: they stop stepping, so their
    /// campaign state is frozen and the ramp must not wait on them.
    stuck: Vec<bool>,
    /// Campaign counters (`campaign.*`, `chaos.update_*`), merged into
    /// the fleet report.
    pub metrics: MetricsRegistry,
}

impl CampaignState {
    /// Builds the campaign from the booted master: resolves the target
    /// trustlet, constructs the patched image and precomputes both
    /// reference measurement vectors.
    pub fn new(
        cfg: CampaignConfig,
        master: &mut trustlite::Platform,
        expected: &[[u8; 32]],
        devices: usize,
    ) -> Result<CampaignState, TrustliteError> {
        let mut ordered: Vec<(u32, String)> = master
            .plans
            .iter()
            .map(|(n, p)| (p.tt_index, n.clone()))
            .collect();
        ordered.sort();
        let (_, target) = ordered
            .first()
            .cloned()
            .ok_or(TrustliteError::Snapshot("campaign target"))?;
        let plan = master.plan(&target)?.clone();
        // The original image comes from the PROM firmware table — the
        // same bytes the Secure Loader copies at every slot-A boot.
        let entry = trustlite::prom::read_table(&mut master.machine.sys.bus)?
            .into_iter()
            .find(|e| e.id == plan.id)
            .ok_or(TrustliteError::Snapshot("campaign PROM entry"))?;
        let mut patched_image = entry.code;
        patched_image.extend_from_slice(&0x5542_00ED_u32.to_le_bytes());
        if patched_image.len() as u32 > plan.code_size {
            return Err(TrustliteError::ImageTooLarge {
                name: target,
                reserved: plan.code_size,
                actual: patched_image.len() as u32,
            });
        }
        let mut expected_patched = expected.to_vec();
        let target_ix = ordered
            .iter()
            .position(|(_, n)| *n == target)
            .expect("target came from ordered");
        expected_patched[target_ix] = attest::measure_region(&patched_image, plan.code_size);
        Ok(CampaignState {
            cfg,
            target,
            patched_image,
            expected_primary: expected.to_vec(),
            expected_patched,
            states: vec![UpdateState::Idle; devices],
            gate_attempts: vec![0; devices],
            patched_active: vec![false; devices],
            stuck: vec![false; devices],
            metrics: MetricsRegistry::default(),
        })
    }

    /// The measurement reference the verifier must hold device `id` to
    /// for responses produced since the last round boundary.
    pub fn expected_for(&self, id: usize) -> &[[u8; 32]] {
        if self.patched_active[id] {
            &self.expected_patched
        } else {
            &self.expected_primary
        }
    }

    /// Devices in the canary wave (`ids < canary_count`).
    fn canary_count(&self) -> usize {
        let n = self.states.len();
        (n * self.cfg.canary_pct.min(100) as usize / 100).clamp(1, n)
    }

    /// Devices that rolled back so far.
    fn rollbacks(&self) -> usize {
        self.states
            .iter()
            .filter(|s| **s == UpdateState::RolledBack)
            .count()
    }

    /// Whether the circuit breaker forbids staging new devices.
    fn breaker_tripped(&self) -> bool {
        self.rollbacks() > self.cfg.failure_budget as usize
    }

    /// Whether device `id` may be pulled into an open wave: canaries
    /// are staged immediately; everyone else waits for every canary to
    /// resolve (terminal or quarantined — a quarantined canary must not
    /// wedge the rollout).
    fn wave_open(&self, id: usize) -> bool {
        let canaries = self.canary_count();
        if id < canaries {
            return true;
        }
        (0..canaries).all(|c| self.states[c].is_terminal() || self.stuck[c])
    }

    /// One device's campaign step at the `round` boundary (phase B,
    /// worker 0, device order). `fault` is this round's update-window
    /// fault, already gated on the chaos plan being enabled.
    pub fn step(
        &mut self,
        id: usize,
        dev: &mut DeviceSim,
        round: u64,
        fleet_seed: u64,
        fault: Option<UpdateFault>,
    ) {
        if dev.health.is_quarantined() {
            // Quarantined devices no longer step or answer challenges;
            // the campaign leaves them where they stand and the ramp
            // stops waiting on them.
            self.stuck[id] = true;
            return;
        }
        match self.states[id] {
            UpdateState::Idle => {
                if !self.breaker_tripped() && self.wave_open(id) {
                    self.states[id] = UpdateState::Staged;
                }
            }
            UpdateState::Staged => {
                dev.platform
                    .stage_update(&self.target, &self.patched_image, self.cfg.version)
                    .expect("staging a validated image cannot fail");
                self.metrics.inc("campaign.staged");
                self.states[id] = UpdateState::Written;
            }
            UpdateState::Written => {
                // The update window: the image sits in untrusted DRAM,
                // written but not committed. This is where staged-image
                // bit flips, stale-version replays and write/commit
                // crashes land.
                match fault {
                    Some(UpdateFault::StagedBitFlip { select, bit }) => {
                        let len = self.patched_image.len() as u64;
                        let offset = (select % len) as u32;
                        dev.platform
                            .corrupt_staged(&self.target, offset, bit)
                            .expect("staged image is mapped DRAM");
                        self.metrics.inc("chaos.update_bit_flips");
                    }
                    Some(UpdateFault::StaleVersionReplay) => {
                        dev.platform
                            .replay_stale_version(&self.target)
                            .expect("armed block exists");
                        self.metrics.inc("chaos.update_stale_replays");
                    }
                    Some(UpdateFault::CrashBeforeCommit) => {
                        // The crash *is* the reboot — the device comes
                        // back up before the orchestrator asked it to,
                        // and the Secure Loader consults the block
                        // exactly as it would on the planned reboot.
                        self.metrics.inc("chaos.update_crash_resets");
                    }
                    _ => {}
                }
                dev.warm_reset();
                self.metrics.inc("campaign.reboots");
                self.gate_attempts[id] = 0;
                self.states[id] = UpdateState::Rebooted;
            }
            UpdateState::Rebooted => {
                let block = dev
                    .platform
                    .update_block(&self.target)
                    .expect("target exists");
                let staged_alive = matches!(
                    block.as_ref().map(|b| b.state),
                    Some(SlotState::Written) | Some(SlotState::Confirmed)
                );
                if !staged_alive {
                    // The Secure Loader already fell back to slot A
                    // (CRC reject, stale version, attempts exhausted).
                    self.metrics.inc("campaign.rollbacks");
                    self.states[id] = UpdateState::RolledBack;
                } else if matches!(fault, Some(UpdateFault::CrashDuringRemeasure)) {
                    // The device dies mid-re-measurement; reboot it and
                    // try the gate again next round. The extra loader
                    // pass may exhaust the slot's boot attempts — the
                    // next step observes whatever the loader decided.
                    dev.warm_reset();
                    self.metrics.inc("campaign.reboots");
                    self.metrics.inc("chaos.update_crash_resets");
                } else {
                    // Commit gate: an attested re-measurement. The
                    // response is host-side (no device cycles), so the
                    // gate is synchronous and deterministic.
                    let ch = attest::Challenge {
                        nonce: gate_nonce(fleet_seed, dev.id, round),
                    };
                    let verdict = attest::respond(&mut dev.platform, &ch).ok().map(|resp| {
                        attest::verify_detailed(&dev.key, &ch, &resp, &self.expected_patched)
                    });
                    if let Some(Ok(())) = verdict {
                        dev.platform
                            .confirm_update(&self.target)
                            .expect("armed block exists");
                        self.metrics.inc("campaign.confirmed");
                        self.states[id] = UpdateState::Confirmed;
                    } else {
                        self.gate_attempts[id] += 1;
                        self.metrics.inc("campaign.gate_retries");
                        if self.gate_attempts[id] >= self.cfg.max_confirm_attempts {
                            // The device boots the new slot but can
                            // never prove it (wrong key, persistent
                            // tamper): force it back to the known-good
                            // slot rather than leave it unattestable.
                            dev.platform
                                .abandon_update(&self.target)
                                .expect("armed block exists");
                            dev.warm_reset();
                            self.metrics.inc("campaign.reboots");
                            self.metrics.inc("campaign.forced_rollbacks");
                            self.metrics.inc("campaign.rollbacks");
                            self.states[id] = UpdateState::RolledBack;
                        }
                    }
                }
            }
            UpdateState::Confirmed | UpdateState::RolledBack => {}
        }
        // Snapshot which reference this device's *next* round of
        // responses will be produced under: the staged slot is live iff
        // a boot actually consumed it — `Written` with a nonzero
        // attempt count (the Secure Loader bumps it on every staged
        // boot) or `Confirmed`. A freshly staged block (`Written`,
        // attempts 0) is armed but the device still runs slot A until
        // its reboot.
        let block = dev
            .platform
            .update_block(&self.target)
            .expect("target exists");
        self.patched_active[id] = match block {
            Some(b) => {
                b.state == SlotState::Confirmed || (b.state == SlotState::Written && b.attempts > 0)
            }
            None => false,
        };
    }

    /// Fixed-width digest bytes for device `id` (hashed only when a
    /// campaign is configured).
    pub fn digest_bytes(&self, id: usize) -> [u8; 8] {
        let mut out = [0u8; 8];
        out[0] = self.states[id].code();
        out[1] = u8::from(self.patched_active[id]);
        out[2..6].copy_from_slice(&self.gate_attempts[id].to_le_bytes());
        out
    }
}
