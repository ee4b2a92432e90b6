//! The simulated TrustLite platform (Figure 1) and its builder.

use std::collections::BTreeMap;

use trustlite_cpu::{Machine, RunExit, SystemBus};
use trustlite_isa::{Asm, Image};
use trustlite_mem::{map, Bus, Ram, Rom};
use trustlite_mpu::EaMpu;
use trustlite_periph::{CryptoAccel, KeyStore, Rng, Timer, Uart};

use crate::error::TrustliteError;
use crate::layout::{self, Layout, MAX_TRUSTLETS};
use crate::loader::{self, LoaderConfig, LoaderReport};
use crate::prom::{self, PromEntry};
use crate::runtime::TrustletProgram;
use crate::spec::{OsSpec, SharedSpec, TrustletOptions, TrustletPlan, TrustletSpec};

/// Interrupt line assigned to the platform timer.
pub const TIMER_IRQ_LINE: u8 = 0;

/// An OS program under construction (data/stack addresses pre-assigned).
pub struct OsProgram {
    /// The underlying assembler (positioned at the OS code base).
    pub asm: Asm,
    /// The OS data region base.
    pub data_base: u32,
    /// The OS data region size.
    pub data_size: u32,
    /// The OS stack top.
    pub stack_top: u32,
    reserved: u32,
}

impl OsProgram {
    /// Finalizes the OS image. User code must define the label `main`.
    pub fn finish(self) -> Result<Image, TrustliteError> {
        let img = self.asm.assemble()?;
        if img.len() > self.reserved {
            return Err(TrustliteError::ImageTooLarge {
                name: "os".to_string(),
                reserved: self.reserved,
                actual: img.len(),
            });
        }
        if img.symbol("main").is_none() {
            return Err(TrustliteError::Asm(
                trustlite_isa::builder::AsmError::UndefinedLabel("main".to_string()),
            ));
        }
        Ok(img)
    }
}

/// Builds a complete TrustLite platform.
pub struct PlatformBuilder {
    sram_size: u32,
    mpu_slots: usize,
    secure_exceptions: bool,
    verify_auth: bool,
    platform_key: Option<[u8; 32]>,
    layout: Layout,
    trustlets: Vec<TrustletSpec>,
    shared: Vec<SharedSpec>,
    os: Option<OsSpec>,
    os_reserved: Option<(u32, u32)>,  // (code_base, code_size)
    os_geom: Option<(u32, u32, u32)>, // (data_base, data_size, stack_top)
    os_periphs: Vec<crate::spec::PeriphGrant>,
    uart_irq_line: Option<u8>,
    rng_seed: u64,
    telemetry: trustlite_obs::ObsLevel,
    next_tt: u32,
}

impl Default for PlatformBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl PlatformBuilder {
    /// Creates a builder with the reference memory map.
    pub fn new() -> Self {
        PlatformBuilder {
            sram_size: map::SRAM_SIZE,
            mpu_slots: 32,
            secure_exceptions: true,
            verify_auth: true,
            platform_key: None,
            layout: Layout::new(map::SRAM_SIZE),
            trustlets: Vec::new(),
            shared: Vec::new(),
            os: None,
            os_reserved: None,
            os_geom: None,
            os_periphs: Vec::new(),
            uart_irq_line: None,
            rng_seed: 0x7457_117e,
            telemetry: trustlite_obs::ObsLevel::Off,
            next_tt: 0,
        }
    }

    /// Sets the telemetry capture level (default off). Setting it here
    /// rather than on the built machine also captures the Secure Loader's
    /// boot-phase events and metrics.
    pub fn telemetry(&mut self, level: trustlite_obs::ObsLevel) -> &mut Self {
        self.telemetry = level;
        self
    }

    /// Sets the number of EA-MPU rule slots (hardware instantiation
    /// choice; the paper reports timing closure up to 32 regions).
    pub fn mpu_slots(&mut self, slots: usize) -> &mut Self {
        self.mpu_slots = slots;
        self
    }

    /// Enables or disables the secure exception engine (minimal vs. full
    /// instantiation, Section 3.6).
    pub fn secure_exceptions(&mut self, on: bool) -> &mut Self {
        self.secure_exceptions = on;
        self
    }

    /// Provisions the platform key (key-store slot 0) used for secure
    /// boot and remote attestation.
    pub fn platform_key(&mut self, key: [u8; 32]) -> &mut Self {
        self.platform_key = Some(key);
        self
    }

    /// Disables secure-boot tag verification (for experiments).
    pub fn verify_auth(&mut self, on: bool) -> &mut Self {
        self.verify_auth = on;
        self
    }

    /// Makes the UART raise a receive interrupt on `line` (default:
    /// polled only).
    pub fn uart_irq(&mut self, line: u8) -> &mut Self {
        self.uart_irq_line = Some(line);
        self
    }

    /// Seeds the RNG peripheral (determinism knob for tests/benches).
    pub fn rng_seed(&mut self, seed: u64) -> &mut Self {
        self.rng_seed = seed;
        self
    }

    /// Grants the OS a peripheral MMIO window (the untrusted peripherals
    /// it is allowed to drive).
    pub fn grant_os_peripheral(&mut self, grant: crate::spec::PeriphGrant) -> &mut Self {
        self.os_periphs.push(grant);
        self
    }

    /// Reserves memory for a trustlet and returns its plan. Programs are
    /// assembled *against* the plan (it fixes all absolute addresses).
    pub fn plan_trustlet(
        &mut self,
        name: &str,
        code_size: u32,
        data_size: u32,
        stack_size: u32,
    ) -> TrustletPlan {
        assert!(self.next_tt < MAX_TRUSTLETS, "too many trustlets");
        let code_base = self.layout.alloc(code_size, 16).expect("SRAM exhausted");
        // Data and stack are allocated adjacently so one MPU rule covers
        // both (the paper's trick for conserving region registers).
        let data_base = self
            .layout
            .alloc(data_size + stack_size, 16)
            .expect("SRAM exhausted");
        let tt_index = self.next_tt;
        self.next_tt += 1;
        TrustletPlan {
            name: name.to_string(),
            id: 0xA0 + tt_index,
            tt_index,
            code_base,
            code_size,
            data_base,
            data_size,
            stack_base: data_base + data_size,
            stack_size,
            entry_len: 8,
            sp_slot: layout::tt_sp_slot(tt_index),
            measure_slot: layout::measure_row(tt_index),
        }
    }

    /// Allocates a named shared-memory region.
    pub fn plan_shared(&mut self, name: &str, size: u32) -> SharedSpec {
        let base = self.layout.alloc(size, 16).expect("SRAM exhausted");
        let spec = SharedSpec {
            name: name.to_string(),
            base,
            size,
        };
        self.shared.push(spec.clone());
        spec
    }

    /// Registers an assembled trustlet. The image must sit exactly at the
    /// plan's code base and define a `main` symbol.
    pub fn add_trustlet(
        &mut self,
        plan: &TrustletPlan,
        image: Image,
        options: TrustletOptions,
    ) -> Result<(), TrustliteError> {
        if self.trustlets.iter().any(|t| t.plan.name == plan.name) {
            return Err(TrustliteError::DuplicateTrustlet(plan.name.clone()));
        }
        if image.base != plan.code_base {
            return Err(TrustliteError::PlanMismatch {
                name: plan.name.clone(),
                expected: plan.code_base,
                actual: image.base,
            });
        }
        if image.len() > plan.code_size {
            return Err(TrustliteError::ImageTooLarge {
                name: plan.name.clone(),
                reserved: plan.code_size,
                actual: image.len(),
            });
        }
        let main = image.symbol("main").ok_or_else(|| {
            TrustliteError::Asm(trustlite_isa::builder::AsmError::UndefinedLabel(
                "main".to_string(),
            ))
        })?;
        self.trustlets.push(TrustletSpec {
            plan: plan.clone(),
            image,
            main,
            options,
        });
        Ok(())
    }

    /// Starts the OS program, reserving `code_size` bytes of code and the
    /// given data/stack sizes.
    pub fn begin_os_sized(&mut self, code_size: u32, data_size: u32, stack_size: u32) -> OsProgram {
        let code_base = self.layout.alloc(code_size, 16).expect("SRAM exhausted");
        let data_base = self
            .layout
            .alloc(data_size + stack_size, 16)
            .expect("SRAM exhausted");
        self.os_reserved = Some((code_base, code_size));
        self.os_geom = Some((data_base, data_size, data_base + data_size + stack_size));
        OsProgram {
            asm: Asm::new(code_base),
            data_base,
            data_size,
            stack_top: data_base + data_size + stack_size,
            reserved: code_size,
        }
    }

    /// Starts the OS program with default sizes (4 KiB code, 2 KiB data,
    /// 2 KiB stack).
    pub fn begin_os(&mut self) -> OsProgram {
        self.begin_os_sized(0x1000, 0x800, 0x800)
    }

    /// Registers the finished OS image. `idt` maps vectors to symbol
    /// names defined in the image. The data/stack geometry recorded by
    /// [`PlatformBuilder::begin_os`] is attached automatically.
    pub fn set_os(&mut self, image: Image, idt: &[(u8, &str)]) -> &mut Self {
        let entry = image.expect_symbol("main");
        if let Some((code_base, _)) = self.os_reserved {
            debug_assert_eq!(image.base, code_base);
        }
        let handlers: Vec<(u8, u32)> = idt
            .iter()
            .map(|(v, sym)| (*v, image.expect_symbol(sym)))
            .collect();
        let (data_base, data_size, stack_top) =
            self.os_geom.unwrap_or((image.base + image.len(), 0, 0));
        self.os = Some(OsSpec {
            entry,
            idt: handlers,
            data_base,
            data_size: stack_top.saturating_sub(data_base).max(data_size),
            stack_top,
            image,
            peripherals: self.os_periphs.clone(),
        });
        self
    }

    /// Builds the SoC, stages PROM, runs the Secure Loader and returns the
    /// ready platform with the OS about to execute.
    pub fn build(&mut self) -> Result<Platform, TrustliteError> {
        let os = self.os.clone().ok_or(TrustliteError::MissingOs)?;

        // Assemble the SoC (Figure 1).
        let mut bus = Bus::new();
        bus.map(map::PROM_BASE, Box::new(Rom::new(map::PROM_SIZE)))?;
        bus.map(map::SRAM_BASE, Box::new(Ram::new("sram", self.sram_size)))?;
        // Retained RAM: survives warm resets (Platform::reset never
        // touches memory), zeroed only here at cold boot. No MPU rule is
        // ever programmed for it, so software cannot reach it — only the
        // Secure Loader and the host, via the hardware access paths.
        bus.map(
            map::RETRAM_BASE,
            Box::new(Ram::new("retram", map::RETRAM_SIZE)),
        )?;
        bus.map(map::DRAM_BASE, Box::new(Ram::new("dram", map::DRAM_SIZE)))?;
        bus.map(map::TIMER_MMIO_BASE, Box::new(Timer::new(TIMER_IRQ_LINE)))?;
        let uart = match self.uart_irq_line {
            Some(line) => Uart::with_irq(line),
            None => Uart::new(),
        };
        bus.map(map::UART_MMIO_BASE, Box::new(uart))?;
        bus.map(map::CRYPTO_MMIO_BASE, Box::new(CryptoAccel::new()))?;
        bus.map(map::RNG_MMIO_BASE, Box::new(Rng::new(self.rng_seed)))?;
        let mut keystore = KeyStore::new(4);
        if let Some(key) = self.platform_key {
            keystore.provision(0, key).expect("slot 0 exists");
        }
        bus.map(map::KEYSTORE_MMIO_BASE, Box::new(keystore))?;

        // Stage the firmware table into PROM ("factory programming").
        let entries: Vec<PromEntry> = self
            .trustlets
            .iter()
            .map(|t| PromEntry {
                id: t.plan.id,
                dst_base: t.plan.code_base,
                code: t.image.bytes.clone(),
                entry_len: t.plan.entry_len,
                measured: t.options.measured,
                auth_tag: t.options.auth_tag,
                main: t.main,
            })
            .collect();
        let blob = prom::stage(&entries);
        if !bus.host_load(map::PROM_BASE + loader::FW_TABLE_OFF, &blob) {
            return Err(TrustliteError::BadFirmware(
                "firmware exceeds PROM".to_string(),
            ));
        }

        let mpu = EaMpu::new(self.mpu_slots);
        let mut sys = SystemBus::new(bus, mpu, Some(map::MPU_MMIO_BASE));
        sys.obs.set_level(self.telemetry);
        let mut machine = Machine::new(sys, os.entry);

        let report = loader::run(
            &mut machine,
            &os,
            &self.trustlets,
            &self.shared,
            LoaderConfig {
                secure_exceptions: self.secure_exceptions,
                verify_auth: self.verify_auth,
                platform_key_slot: 0,
            },
        )?;

        // Register cycle-attribution domains: the OS code region and each
        // trustlet's code region. Attribution is keyed on the retiring
        // instruction pointer, so code ranges are all that is needed.
        let obs = &mut machine.sys.obs;
        obs.attr
            .register("os", &[(os.image.base, os.image.base + os.image.len())]);
        for t in &self.trustlets {
            obs.attr.register(
                &t.plan.name,
                &[(t.plan.code_base, t.plan.code_base + t.plan.code_size)],
            );
        }

        let plans = self
            .trustlets
            .iter()
            .map(|t| (t.plan.name.clone(), t.plan.clone()))
            .collect();
        Ok(Platform {
            machine,
            plans,
            shared: self.shared.clone(),
            os,
            report,
            trustlet_images: self
                .trustlets
                .iter()
                .map(|t| (t.plan.name.clone(), t.image.clone()))
                .collect(),
            specs: self.trustlets.clone(),
            loader_cfg: LoaderConfig {
                secure_exceptions: self.secure_exceptions,
                verify_auth: self.verify_auth,
                platform_key_slot: 0,
            },
        })
    }
}

/// A booted platform: the machine is stopped at the OS entry point.
pub struct Platform {
    /// The simulated machine.
    pub machine: Machine,
    /// Trustlet plans by name.
    pub plans: BTreeMap<String, TrustletPlan>,
    /// Shared regions.
    pub shared: Vec<SharedSpec>,
    /// The OS spec.
    pub os: OsSpec,
    /// What the Secure Loader did.
    pub report: LoaderReport,
    trustlet_images: BTreeMap<String, Image>,
    specs: Vec<TrustletSpec>,
    loader_cfg: LoaderConfig,
}

impl Platform {
    /// Performs a warm platform reset (Section 3.5): the register file is
    /// cleared and the Secure Loader runs again from PROM, re-copying
    /// images and *re-establishing* the protection rules. Volatile memory
    /// is deliberately **not** wiped — that is the paper's fast-startup
    /// point: stale secrets stay in SRAM but become unreachable the
    /// moment the rules are back, before any untrusted code runs.
    pub fn reset(&mut self) -> Result<&LoaderReport, TrustliteError> {
        self.machine.halted = None;
        self.machine.exc_log.clear();
        self.machine.cycles = 0;
        self.machine.instret = 0;
        self.machine.regs = trustlite_cpu::RegFile::default();
        // Telemetry survives the reset warm: level, ring capacity and
        // attribution domains stay; captured data is dropped.
        self.machine.sys.obs.clear();
        self.report = loader::run(
            &mut self.machine,
            &self.os,
            &self.specs,
            &self.shared,
            self.loader_cfg,
        )?;
        Ok(&self.report)
    }

    /// Deep-copies the booted platform for fleet fan-out. The Secure
    /// Loader does **not** run again: the child starts from the parent's
    /// exact post-boot state (registers, SRAM/DRAM contents, MPU rules
    /// with their lock bits *and* epoch counters, pending interrupts,
    /// trustlet table). Apply [`Platform::diverge`] afterwards to give
    /// the clone its own identity.
    pub fn fork(&self) -> Result<Platform, TrustliteError> {
        Ok(Platform {
            machine: self.machine.snapshot().map_err(TrustliteError::Snapshot)?,
            plans: self.plans.clone(),
            shared: self.shared.clone(),
            os: self.os.clone(),
            report: self.report.clone(),
            trustlet_images: self.trustlet_images.clone(),
            specs: self.specs.clone(),
            loader_cfg: self.loader_cfg,
        })
    }

    /// Gives a forked platform its own identity: reseeds the RNG
    /// peripheral, reprovisions the platform key (key-store slot 0, the
    /// secure-boot/attestation key) and publishes `device_id` in the
    /// top word of DRAM ([`Platform::DEVICE_ID_ADDR`]) where device
    /// software can read it. Telemetry captured before the fork (the
    /// shared boot trace) is dropped so per-device metrics count only
    /// post-fork work; capture level and attribution domains survive.
    pub fn diverge(
        &mut self,
        device_id: u32,
        rng_seed: u64,
        device_key: [u8; 32],
    ) -> Result<(), TrustliteError> {
        let bus = &mut self.machine.sys.bus;
        bus.device_mut::<Rng>("rng")
            .ok_or(TrustliteError::Snapshot("rng"))?
            .reseed(rng_seed);
        bus.device_mut::<KeyStore>("keystore")
            .ok_or(TrustliteError::Snapshot("keystore"))?
            .provision(0, device_key)
            .map_err(|_| TrustliteError::Snapshot("keystore"))?;
        self.machine
            .sys
            .hw_write32(Self::DEVICE_ID_ADDR, device_id)
            .map_err(|e| TrustliteError::BadFirmware(e.to_string()))?;
        self.machine.sys.obs.clear();
        Ok(())
    }

    /// Where [`Platform::diverge`] publishes the device id: the last
    /// word of DRAM, outside every allocator-managed SRAM region.
    pub const DEVICE_ID_ADDR: u32 = map::DRAM_BASE + map::DRAM_SIZE - 4;

    /// Switches the memory devices (PROM, SRAM, DRAM) between sparse
    /// copy-on-write backing (the default) and dense reference backing
    /// (every page materialized, deep-copy snapshots — the pre-sparse
    /// behaviour). Contents are unchanged; the switch is architecturally
    /// invisible (it goes through `device_mut`, so `host_gen` bumps and
    /// derived caches re-validate, exactly like any host-side touch).
    /// Dense/sparse fleets must produce byte-identical digests — the
    /// fleet's `dense_sparse_props` tests hold this line.
    pub fn set_dense_memory(&mut self, dense: bool) -> Result<(), TrustliteError> {
        let bus = &mut self.machine.sys.bus;
        bus.device_mut::<Rom>("prom")
            .ok_or(TrustliteError::Snapshot("prom"))?
            .set_dense(dense);
        bus.device_mut::<Ram>("sram")
            .ok_or(TrustliteError::Snapshot("sram"))?
            .set_dense(dense);
        bus.device_mut::<Ram>("retram")
            .ok_or(TrustliteError::Snapshot("retram"))?
            .set_dense(dense);
        bus.device_mut::<Ram>("dram")
            .ok_or(TrustliteError::Snapshot("dram"))?
            .set_dense(dense);
        Ok(())
    }

    /// Host-side materialized bytes across the platform's devices (see
    /// `trustlite_mem::Device::resident_bytes`). Diagnostic only.
    pub fn resident_bytes(&self) -> u64 {
        self.machine.sys.resident_bytes()
    }

    /// Host-side bytes backing the CPU's predecode and superblock
    /// tables, amortized over snapshot sharers (see
    /// `SystemBus::code_cache_bytes`). Diagnostic only.
    pub fn code_cache_bytes(&self) -> u64 {
        self.machine.sys.code_cache_bytes()
    }

    /// Total addressable bytes across the platform's devices.
    pub fn addressable_bytes(&self) -> u64 {
        self.machine.sys.addressable_bytes()
    }

    /// The full trustlet specs the platform was built from (used by the
    /// policy auditor).
    pub fn specs(&self) -> &[crate::spec::TrustletSpec] {
        &self.specs
    }

    /// Looks up a trustlet's plan.
    pub fn plan(&self, name: &str) -> Result<&TrustletPlan, TrustliteError> {
        self.plans
            .get(name)
            .ok_or_else(|| TrustliteError::UnknownTrustlet(name.to_string()))
    }

    /// Looks up a trustlet's loaded image.
    pub fn image(&self, name: &str) -> Result<&Image, TrustliteError> {
        self.trustlet_images
            .get(name)
            .ok_or_else(|| TrustliteError::UnknownTrustlet(name.to_string()))
    }

    /// Host-side analogue of the OS invoking a trustlet's `continue()`
    /// entry (a hardware-style control transfer; tests and examples use
    /// it to activate a trustlet without scripting the OS).
    pub fn start_trustlet(&mut self, name: &str) -> Result<(), TrustliteError> {
        let entry = self.plan(name)?.continue_entry();
        self.machine.regs.ip = entry;
        self.machine.prev_ip = entry;
        Ok(())
    }

    /// Runs the machine for at most `max_steps`.
    pub fn run(&mut self, max_steps: u64) -> RunExit {
        self.machine.run(max_steps)
    }

    /// Drains the UART output.
    pub fn uart_output(&mut self) -> Vec<u8> {
        self.machine
            .sys
            .bus
            .device_mut::<Uart>("uart")
            .map(|u| u.take_output())
            .unwrap_or_default()
    }

    /// Reads the loader-recorded measurement of a trustlet.
    pub fn measurement(&mut self, name: &str) -> Result<[u8; 32], TrustliteError> {
        let slot = self.plan(name)?.measure_slot;
        let mut out = [0u8; 32];
        for i in 0..8 {
            let w = self
                .machine
                .sys
                .hw_read32(slot + 4 * i)
                .map_err(|e| TrustliteError::BadFirmware(e.to_string()))?;
            out[4 * i as usize..4 * i as usize + 4].copy_from_slice(&w.to_le_bytes());
        }
        Ok(out)
    }

    /// Fault-injection hook: flips the low bit of the first word of
    /// `name`'s row in the measurement table, modeling an adversary that
    /// altered the recorded measurement (or the code it summarizes)
    /// after load. The verifier must reject this device's reports on
    /// measurement mismatch. A warm [`Platform::reset`] heals the
    /// tampering — the Secure Loader re-measures from PROM, which is
    /// the paper's point about re-establishing trust from ROM.
    pub fn tamper_measurement(&mut self, name: &str) -> Result<(), TrustliteError> {
        let slot = self.plan(name)?.measure_slot;
        let word = self
            .machine
            .sys
            .hw_read32(slot)
            .map_err(|e| TrustliteError::BadFirmware(e.to_string()))?;
        self.machine
            .sys
            .hw_write32(slot, word ^ 1)
            .map_err(|e| TrustliteError::BadFirmware(e.to_string()))?;
        Ok(())
    }

    /// Stages a new image (slot B) for trustlet `name`: writes the
    /// bytes into the trustlet's DRAM staging area and arms the
    /// retained update block (state `Written`, CRC-32 guard, monotonic
    /// version word, attempt counter cleared). Takes effect at the next
    /// warm reset, when the Secure Loader consults the block; the
    /// anti-rollback floor and retained boot log survive restaging.
    pub fn stage_update(
        &mut self,
        name: &str,
        code: &[u8],
        version: u32,
    ) -> Result<(), TrustliteError> {
        let plan = self.plan(name)?;
        let (tt, code_size) = (plan.tt_index, plan.code_size);
        if code.is_empty() {
            return Err(TrustliteError::BadFirmware(format!(
                "empty staged image for `{name}`"
            )));
        }
        if code.len() as u32 > code_size || code.len() as u32 > crate::update::STAGING_STRIDE {
            return Err(TrustliteError::ImageTooLarge {
                name: name.to_string(),
                reserved: code_size,
                actual: code.len() as u32,
            });
        }
        crate::update::write_staged(&mut self.machine.sys, tt, code);
        let mut block = crate::update::read_block(&mut self.machine.sys, tt).unwrap_or_default();
        block.state = crate::update::SlotState::Written;
        block.version = version;
        block.staged_len = code.len() as u32;
        block.staged_crc = trustlite_crypto::crc32(code);
        block.attempts = 0;
        crate::update::write_block(&mut self.machine.sys, tt, &block);
        Ok(())
    }

    /// Commits the staged image: state `Confirmed`, the anti-rollback
    /// floor raised to its version (monotonic — never lowered), the
    /// attempt counter cleared, and a `committed` entry retained in the
    /// boot log. The orchestrator calls this only after the commit gate
    /// (an *attested* re-measurement of the rebooted device) passed.
    pub fn confirm_update(&mut self, name: &str) -> Result<(), TrustliteError> {
        let tt = self.plan(name)?.tt_index;
        let mut block = crate::update::read_block(&mut self.machine.sys, tt)
            .ok_or_else(|| TrustliteError::BadFirmware(format!("no update block for `{name}`")))?;
        block.state = crate::update::SlotState::Confirmed;
        block.rollback_min = block.rollback_min.max(block.version);
        let attempts = block.attempts;
        block.attempts = 0;
        block.push_log(1, crate::update::BootVerdict::Committed, attempts);
        crate::update::write_block(&mut self.machine.sys, tt, &block);
        Ok(())
    }

    /// Abandons an in-flight update: state `RolledBack` with a
    /// `forced_rollback` log entry, so the next reset boots slot A. The
    /// orchestrator uses this when the commit gate keeps failing.
    pub fn abandon_update(&mut self, name: &str) -> Result<(), TrustliteError> {
        let tt = self.plan(name)?.tt_index;
        let mut block = crate::update::read_block(&mut self.machine.sys, tt)
            .ok_or_else(|| TrustliteError::BadFirmware(format!("no update block for `{name}`")))?;
        block.state = crate::update::SlotState::RolledBack;
        let attempts = block.attempts;
        block.push_log(0, crate::update::BootVerdict::ForcedRollback, attempts);
        crate::update::write_block(&mut self.machine.sys, tt, &block);
        Ok(())
    }

    /// Reads trustlet `name`'s retained update block (`None` when no
    /// valid block exists — cold state or guard-CRC failure).
    pub fn update_block(
        &mut self,
        name: &str,
    ) -> Result<Option<crate::update::UpdateBlock>, TrustliteError> {
        let tt = self.plan(name)?.tt_index;
        Ok(crate::update::read_block(&mut self.machine.sys, tt))
    }

    /// Fault-injection hook: flips bit `bit` of byte `offset` of the
    /// *staged* image in DRAM without touching the recorded CRC —
    /// modeling decay or an attack on untrusted bulk memory during the
    /// update window. The next boot's CRC check must reject the slot.
    pub fn corrupt_staged(
        &mut self,
        name: &str,
        offset: u32,
        bit: u8,
    ) -> Result<(), TrustliteError> {
        let tt = self.plan(name)?.tt_index;
        let addr = crate::update::staging_base(tt) + (offset & !3);
        let word = self
            .machine
            .sys
            .hw_read32(addr)
            .map_err(|e| TrustliteError::BadFirmware(e.to_string()))?;
        let flipped = word ^ (1u32 << (8 * (offset & 3) + u32::from(bit & 7)));
        self.machine
            .sys
            .hw_write32(addr, flipped)
            .map_err(|e| TrustliteError::BadFirmware(e.to_string()))?;
        Ok(())
    }

    /// Fault-injection hook: replays the staged version word back to
    /// the anti-rollback floor (a well-formed but stale update blob, as
    /// a replay adversary would ship). The block's guard CRC is
    /// recomputed — the *content* is valid; only anti-rollback can
    /// reject it at the next boot.
    pub fn replay_stale_version(&mut self, name: &str) -> Result<(), TrustliteError> {
        let tt = self.plan(name)?.tt_index;
        let mut block = crate::update::read_block(&mut self.machine.sys, tt)
            .ok_or_else(|| TrustliteError::BadFirmware(format!("no update block for `{name}`")))?;
        block.version = block.rollback_min;
        crate::update::write_block(&mut self.machine.sys, tt, &block);
        Ok(())
    }

    /// Renders the programmed MPU policy as a Figure 3-style table.
    pub fn access_matrix(&self) -> String {
        let mut out = String::from("slot  object              perms  subject\n");
        for (i, s) in self.machine.sys.mpu.slots().iter().enumerate() {
            if !s.enabled {
                continue;
            }
            let subject = match s.subject {
                trustlite_mpu::Subject::Any => "any".to_string(),
                trustlite_mpu::Subject::Region(r) => format!("region {r}"),
            };
            out.push_str(&format!(
                "{i:>4}  {:#010x}-{:#010x}  {}  {}\n",
                s.start, s.end, s.perms, subject
            ));
        }
        out
    }
}

/// Convenience: a [`TrustletProgram`] pre-positioned for `plan`.
impl TrustletPlan {
    /// Starts assembling this trustlet's program.
    pub fn begin_program(&self) -> TrustletProgram {
        TrustletProgram::new(self)
    }
}
