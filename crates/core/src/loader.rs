//! The Secure Loader (Section 3.5, Figure 5).
//!
//! The Secure Loader is the first code to run at platform reset. It
//! protects itself via the MPU, loads trustlets from PROM into SRAM, sets
//! up the memory protection rules, populates the Trustlet Table and only
//! then launches the untrusted OS. Because it runs again on every reset,
//! it can *re-establish* protection instead of requiring the hardware to
//! wipe all volatile memory, which is the paper's answer to SMART's and
//! Sancus's reset-sanitization requirement.
//!
//! This module is the host-side reference model of that PROM routine: it
//! performs exactly the observable state transitions (every MPU register
//! write goes through the real register interface and is counted; every
//! image word is copied from the PROM device to the SRAM device; the
//! tables land in write-protected SRAM) while its control logic runs in
//! host Rust. The substitution is recorded in DESIGN.md.

use std::collections::BTreeMap;

use trustlite_cpu::{vectors, Machine, TrustletRow};
use trustlite_crypto::hmac_sha256;
use trustlite_mem::map;
use trustlite_mpu::{Perms, RuleSlot, Subject};
use trustlite_periph::KeyStore;

use crate::error::TrustliteError;
use crate::layout;
use crate::prom;
use crate::spec::{OsSpec, SharedSpec, TrustletSpec};

/// Offset of the firmware table inside PROM.
pub const FW_TABLE_OFF: u32 = 0x1000;

/// Loader-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct LoaderConfig {
    /// Instantiate the secure exception engine.
    pub secure_exceptions: bool,
    /// Verify `auth_tag`s (secure boot) against the platform key.
    pub verify_auth: bool,
    /// Key-store slot holding the platform key.
    pub platform_key_slot: usize,
}

impl Default for LoaderConfig {
    fn default() -> Self {
        LoaderConfig {
            secure_exceptions: true,
            verify_auth: true,
            platform_key_slot: 0,
        }
    }
}

/// What the loader did — the Section 5.3 measurement record.
#[derive(Debug, Clone, Default)]
pub struct LoaderReport {
    /// MPU register writes performed (three per protection region).
    pub mpu_writes: u64,
    /// Protection regions programmed.
    pub regions_programmed: usize,
    /// Words copied from PROM to SRAM.
    pub words_copied: u64,
    /// Bytes hashed for load-time measurement.
    pub measured_bytes: u64,
    /// Names of loaded trustlets, in Trustlet Table order.
    pub trustlets: Vec<String>,
    /// MPU rule slots used per trustlet (for inspection/diagnostics).
    pub rule_map: BTreeMap<String, Vec<usize>>,
    /// Rough cycle estimate of the boot flow (copies + register writes +
    /// measurement absorption at one word per cycle).
    pub estimated_cycles: u64,
    /// Trustlets booted from the staged (B) slot this run.
    pub staged_boots: Vec<String>,
    /// Rollback verdicts recorded this run (trustlet name, verdict):
    /// the retained update block rejected the staged image and the
    /// loader fell back to the PROM (A) slot.
    pub rollbacks: Vec<(String, crate::update::BootVerdict)>,
}

/// The number of words in the fabricated initial resume frame (mirrors
/// the secure exception engine's save format).
pub const INITIAL_FRAME_WORDS: u32 = 10;

/// Runs the Secure Loader boot flow against `machine`.
///
/// `trustlet` specs must match the firmware entries staged in PROM (the
/// platform builder guarantees this); `shared` lists the platform's
/// shared-memory regions.
pub fn run(
    machine: &mut Machine,
    os: &OsSpec,
    trustlets: &[TrustletSpec],
    shared: &[SharedSpec],
    cfg: LoaderConfig,
) -> Result<LoaderReport, TrustliteError> {
    let mut report = LoaderReport::default();
    let mut auth_words = 0u64;

    // Step 1 (Figure 5): clear the MPU access-control registers.
    machine.sys.mpu.reset();

    // Read the platform key for secure boot.
    let platform_key = machine
        .sys
        .bus
        .device_mut::<KeyStore>("keystore")
        .and_then(|ks| ks.key(cfg.platform_key_slot));

    // Step 2: parse the firmware table out of PROM and load each trustlet.
    let entries = prom::read_table(&mut machine.sys.bus)?;

    for entry in &entries {
        let spec = trustlets
            .iter()
            .find(|t| t.plan.id == entry.id)
            .ok_or_else(|| TrustliteError::BadFirmware(format!("unknown id {}", entry.id)))?;
        let plan = &spec.plan;

        // Step 2a: authenticate (secure boot) before anything is copied.
        if cfg.verify_auth {
            if let Some(tag) = entry.auth_tag {
                let key =
                    platform_key.ok_or_else(|| TrustliteError::AuthFailed(plan.name.clone()))?;
                let expected = hmac_sha256(&key, &entry.code);
                if !trustlite_crypto::ct_eq(&expected, &tag) {
                    return Err(TrustliteError::AuthFailed(plan.name.clone()));
                }
                auth_words += entry.code.len().div_ceil(4) as u64;
            }
        }

        // Step 2a': A/B slot decision — consult the retained update
        // block (if any) and validate the staged image; any doubt falls
        // back to the PROM image authenticated above, so a device can
        // never end up without a bootable slot.
        let choice = crate::update::boot_decision(
            &mut machine.sys,
            plan.tt_index,
            &entry.code,
            plan.code_size,
        );
        if choice.staged {
            report.staged_boots.push(plan.name.clone());
        }
        if let Some(v) = choice.rollback {
            report.rollbacks.push((plan.name.clone(), v));
        }

        // Step 2b: copy the chosen image into its SRAM region. With an
        // update block in play the rest of the region is zero-filled so
        // a slot switch never leaves bytes of the other image behind
        // (the measurement covers the zero-padded region).
        let copy_words = if choice.update_active {
            plan.code_size.div_ceil(4) as usize
        } else {
            choice.code.len().div_ceil(4)
        };
        for i in 0..copy_words {
            let mut w = [0u8; 4];
            let at = 4 * i;
            if at < choice.code.len() {
                let chunk = &choice.code[at..choice.code.len().min(at + 4)];
                w[..chunk.len()].copy_from_slice(chunk);
            }
            machine
                .sys
                .hw_write32(entry.dst_base + at as u32, u32::from_le_bytes(w))
                .map_err(|e| TrustliteError::BadFirmware(e.to_string()))?;
            report.words_copied += 1;
        }

        // Step 2c: static initialization — fabricate the initial resume
        // frame so the first continue() lands in `main` with a clean
        // register file (the paper's "setting up its stack, instruction
        // pointer"). Frame top-down: r7..r0, flags (IE set), main.
        let stack_top = plan.stack_top();
        let saved_sp = stack_top - 4 * INITIAL_FRAME_WORDS;
        let mut frame = [0u32; INITIAL_FRAME_WORDS as usize];
        frame[8] = 1; // flags word at saved_sp + 32: IE = 1
        frame[9] = entry.main; // return ip at saved_sp + 36
        for (i, w) in frame.iter().enumerate() {
            machine
                .sys
                .hw_write32(saved_sp + 4 * i as u32, *w)
                .map_err(|e| TrustliteError::BadFirmware(e.to_string()))?;
        }

        // Step 2d: measurement (root of trust for attestation). The
        // whole protection region is measured (image zero-padded), so any
        // party that can read the region can recompute the digest.
        if entry.measured {
            let digest = crate::attest::measure_region(&choice.code, plan.code_size);
            for (i, chunk) in digest.chunks(4).enumerate() {
                let w = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
                machine
                    .sys
                    .hw_write32(plan.measure_slot + 4 * i as u32, w)
                    .map_err(|e| TrustliteError::BadFirmware(e.to_string()))?;
            }
            report.measured_bytes += choice.code.len() as u64;
        }

        // Populate the Trustlet Table row.
        trustlite_cpu::ttable::write_row(
            &mut machine.sys,
            layout::tt_base(),
            plan.tt_index,
            &TrustletRow {
                id: plan.id,
                code_start: plan.code_base,
                code_end: plan.code_end(),
                saved_sp,
            },
        )
        .map_err(|e| TrustliteError::BadFirmware(e.to_string()))?;

        report.trustlets.push(plan.name.clone());
    }

    // Step 4 begins here with the OS load (Figure 5: "load&launch OS"):
    // copy the OS image into its SRAM region.
    for (i, chunk) in os.image.bytes.chunks(4).enumerate() {
        let mut w = [0u8; 4];
        w[..chunk.len()].copy_from_slice(chunk);
        machine
            .sys
            .hw_write32(os.image.base + 4 * i as u32, u32::from_le_bytes(w))
            .map_err(|e| TrustliteError::BadFirmware(e.to_string()))?;
        report.words_copied += 1;
    }

    // Step 3: program the MPU.
    program_mpu(machine, os, trustlets, shared, &mut report)?;

    // Interrupt descriptor table and OS stack cell.
    for &(vector, handler) in &os.idt {
        machine
            .sys
            .hw_write32(
                layout::idt_base() + 4 * (vector as u32 % vectors::IDT_ENTRIES),
                handler,
            )
            .map_err(|e| TrustliteError::BadFirmware(e.to_string()))?;
    }
    machine
        .sys
        .hw_write32(layout::os_sp_cell(), os.stack_top)
        .map_err(|e| TrustliteError::BadFirmware(e.to_string()))?;

    // Hardware configuration (CSRs the loader programs and locks).
    machine.hw.secure_exceptions = cfg.secure_exceptions;
    machine.hw.idt_base = layout::idt_base();
    machine.hw.os_sp_cell = layout::os_sp_cell();
    machine.hw.os_region = (os.image.base, os.image.base + os.image.len());
    machine.hw.tt_base = layout::tt_base();
    machine.hw.tt_count = trustlets.len() as u32;

    // Step 4: launch the OS.
    machine.regs.ip = os.entry;
    machine.prev_ip = os.entry;
    machine.regs.sp = os.stack_top;

    report.mpu_writes = machine.sys.mpu.write_count();
    report.regions_programmed = (report.mpu_writes / 3) as usize;
    report.estimated_cycles = report.words_copied
        + report.mpu_writes
        + report.measured_bytes / 4
        + 2 * entries.len() as u64;

    // Telemetry: one event per Figure 5 phase on the estimated-cycle
    // timeline (loader work is host-side, so operation counts stand in
    // for cycles), plus the loader metrics.
    let obs = &mut machine.sys.obs;
    if obs.active() {
        let n = entries.len() as u64;
        use trustlite_obs::LoaderStage;
        let phases: [(LoaderStage, u64); 7] = [
            (LoaderStage::Reset, 1),
            (LoaderStage::Authenticate, auth_words),
            (
                LoaderStage::CopyImages,
                report.words_copied + u64::from(INITIAL_FRAME_WORDS) * n,
            ),
            (LoaderStage::Measure, report.measured_bytes / 4),
            (LoaderStage::ProgramMpu, report.mpu_writes),
            (LoaderStage::ConfigTables, n + os.idt.len() as u64 + 1),
            (LoaderStage::Launch, 1),
        ];
        let mut t = 0u64;
        for (phase, ops) in phases {
            obs.emit(crate::Event::LoaderPhase {
                start: t,
                phase,
                ops,
            });
            obs.metrics
                .add(&format!("loader.{}.ops", phase.name()), ops);
            t += ops.max(1);
        }
        obs.metrics.inc("loader.runs");
        // Update-slot accounting (emitted only when an update was in
        // play, so plain boots keep their exact counter set).
        if !report.staged_boots.is_empty() {
            obs.metrics
                .add("loader.staged_boots", report.staged_boots.len() as u64);
        }
        if !report.rollbacks.is_empty() {
            obs.metrics
                .add("loader.rollbacks", report.rollbacks.len() as u64);
            for (_, v) in &report.rollbacks {
                obs.metrics.inc(&format!("loader.rollback.{}", v.label()));
            }
        }
        obs.metrics
            .observe("loader.estimated_cycles", report.estimated_cycles);
    }
    Ok(report)
}

/// Builds and programs the complete EA-MPU rule set for the platform
/// policy (the executable form of the paper's Figure 3 matrix).
fn program_mpu(
    machine: &mut Machine,
    os: &OsSpec,
    trustlets: &[TrustletSpec],
    shared: &[SharedSpec],
    report: &mut LoaderReport,
) -> Result<(), TrustliteError> {
    let mut rules: Vec<(Option<String>, RuleSlot)> = Vec::new();
    let enabled = |start: u32, end: u32, perms: Perms, subject: Subject| RuleSlot {
        start,
        end,
        perms,
        subject,
        enabled: true,
        locked: false,
    };

    // Slot 0: OS code — executable and readable by anyone (the OS is
    // untrusted; its entry discipline protects nothing). This slot also
    // *defines* the OS subject region.
    let os_slot = rules.len();
    rules.push((
        None,
        enabled(
            os.image.base,
            os.image.base + os.image.len(),
            Perms::RX,
            Subject::Any,
        ),
    ));
    // OS data + stack: rw for OS code only.
    rules.push((
        None,
        enabled(
            os.data_base,
            os.data_base + os.data_size,
            Perms::RW,
            Subject::Region(os_slot as u8),
        ),
    ));
    // System tables (IDT, SP cell, Trustlet Table, measurements): readable
    // by everyone, writable by no one (hardware updates bypass the MPU).
    rules.push((
        None,
        enabled(
            map::SRAM_BASE,
            map::SRAM_BASE + layout::SYS_TABLES_SIZE,
            Perms::R,
            Subject::Any,
        ),
    ));
    // The MPU's own register window: readable so tasks can inspect the
    // policy (local attestation), never writable — this is the lock of
    // Section 3.3/3.5.
    rules.push((
        None,
        enabled(
            map::MPU_MMIO_BASE,
            map::MPU_MMIO_BASE + map::MPU_MMIO_SIZE,
            Perms::R,
            Subject::Any,
        ),
    ));
    // External DRAM: untrusted bulk memory, rwx for everyone.
    rules.push((
        None,
        enabled(
            map::DRAM_BASE,
            map::DRAM_BASE + map::DRAM_SIZE,
            Perms::RWX,
            Subject::Any,
        ),
    ));
    // Peripherals the OS drives.
    for g in &os.peripherals {
        rules.push((
            None,
            enabled(
                g.base,
                g.base + g.size,
                g.perms,
                Subject::Region(os_slot as u8),
            ),
        ));
    }

    // Per-trustlet rules. First pass: code-region (subject) slots.
    let mut code_slot: BTreeMap<&str, usize> = BTreeMap::new();
    for spec in trustlets {
        let plan = &spec.plan;
        let slot = rules.len();
        code_slot.insert(plan.name.as_str(), slot);
        rules.push((
            Some(plan.name.clone()),
            enabled(
                plan.code_base,
                plan.code_end(),
                Perms::RX,
                Subject::Region(slot as u8),
            ),
        ));
    }
    // Second pass: object rules referencing the subject slots.
    for spec in trustlets {
        let plan = &spec.plan;
        let me = Subject::Region(code_slot[plan.name.as_str()] as u8);
        let mut my_rules = vec![code_slot[plan.name.as_str()]];
        let mut push = |rules: &mut Vec<(Option<String>, RuleSlot)>, r: RuleSlot| {
            my_rules.push(rules.len());
            rules.push((Some(plan.name.clone()), r));
        };
        // Entry vector: executable by anyone.
        push(
            &mut rules,
            enabled(
                plan.code_base,
                plan.code_base + plan.entry_len,
                Perms::X,
                Subject::Any,
            ),
        );
        // Public code: readable by anyone (peer inspection).
        if spec.options.public_code {
            push(
                &mut rules,
                enabled(plan.code_base, plan.code_end(), Perms::R, Subject::Any),
            );
        }
        // Private data + stack (allocated adjacently): rw for self.
        push(
            &mut rules,
            enabled(plan.data_base, plan.stack_top(), Perms::RW, me),
        );
        // The trustlet's own Trustlet Table saved-SP slot: writable by the
        // trustlet itself so it can publish its stack pointer before a
        // voluntary IPC transfer (Figure 6's save-state()); everyone else
        // only reads the table.
        push(
            &mut rules,
            enabled(plan.sp_slot, plan.sp_slot + 4, Perms::W, me),
        );
        // Peripheral grants.
        for g in &spec.options.peripherals {
            push(&mut rules, enabled(g.base, g.base + g.size, g.perms, me));
        }
        // Shared regions.
        for (name, perms) in &spec.options.shared {
            let region = shared
                .iter()
                .find(|s| &s.name == name)
                .ok_or_else(|| TrustliteError::UnknownTrustlet(name.clone()))?;
            push(
                &mut rules,
                enabled(region.base, region.base + region.size, *perms, me),
            );
        }
        // Field update: another trustlet may write this code region.
        if let Some(updater) = &spec.options.code_writable_by {
            let slot = *code_slot
                .get(updater.as_str())
                .ok_or_else(|| TrustliteError::UnknownTrustlet(updater.clone()))?;
            push(
                &mut rules,
                enabled(
                    plan.code_base,
                    plan.code_end(),
                    Perms::W,
                    Subject::Region(slot as u8),
                ),
            );
        }
        report.rule_map.insert(plan.name.clone(), my_rules);
    }

    if rules.len() > machine.sys.mpu.slot_count() {
        return Err(TrustliteError::OutOfMpuSlots {
            needed: rules.len(),
            available: machine.sys.mpu.slot_count(),
        });
    }
    for (i, (_, rule)) in rules.iter().enumerate() {
        machine.sys.mpu.set_rule(i, *rule)?;
    }
    // Hardware trustlets: lock their slots until reset (Section 3.6).
    for spec in trustlets {
        if spec.options.lock_rules {
            for &slot in &report.rule_map[&spec.plan.name] {
                machine.sys.mpu.lock_slot(slot)?;
            }
        }
    }
    Ok(())
}
