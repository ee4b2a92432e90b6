//! The simulated machine: core state, execution loop and exception engine.

use std::collections::VecDeque;

use trustlite_isa::{decode, Instr, Reg};
use trustlite_mem::BusError;
use trustlite_obs::{Event, MetricsReport, ObsLevel};

use crate::costs;
use crate::fault::Fault;
use crate::predecode::MicroOp;
use crate::regs::{Flags, RegFile};
use crate::sysbus::{Checked, DataPort, Engine, MemoReplay, SystemBus};
use crate::ttable::{self, TrustletRow};
use crate::vectors;

/// Hardware configuration pins and loader-programmed CSRs.
///
/// On real hardware these are MMIO/CSR values the Secure Loader programs
/// during boot and then locks; the host-side loader model writes them
/// directly. `os_region` is the code range treated as "already executing
/// from the OS region" for the stack-switch decision in Figure 4 step (3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HwConfig {
    /// Whether the TrustLite secure exception engine is instantiated.
    pub secure_exceptions: bool,
    /// Base address of the 32-entry interrupt descriptor table.
    pub idt_base: u32,
    /// Address of the memory cell holding the OS stack top (TSS analogue).
    pub os_sp_cell: u32,
    /// The OS code region `(start, end)`; interrupts from inside do not
    /// switch stacks.
    pub os_region: (u32, u32),
    /// Base address of the Trustlet Table.
    pub tt_base: u32,
    /// Number of valid Trustlet Table rows.
    pub tt_count: u32,
}

/// Why the machine stopped executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaltReason {
    /// A `halt` instruction retired.
    Halt { ip: u32 },
    /// An unrecoverable fault inside the exception engine itself (e.g.
    /// the trustlet stack save faulted — the paper's footnote-1 situation
    /// — or the IDT entry is unconfigured).
    DoubleFault(Fault),
}

/// The result of one [`Machine::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// An instruction retired normally.
    Retired,
    /// An exception or interrupt was taken.
    ExceptionTaken {
        /// The resolved vector.
        vector: u8,
        /// Trustlet Table row index if a trustlet was interrupted.
        trustlet: Option<u32>,
    },
    /// The machine is halted.
    Halted,
}

/// The result of a bounded [`Machine::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExit {
    /// The machine halted.
    Halted(HaltReason),
    /// The step budget was exhausted first.
    StepLimit,
}

/// One entry of the exception log (the Section 5.4 measurement record).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExcRecord {
    /// Resolved vector number.
    pub vector: u8,
    /// Instruction pointer that was interrupted.
    pub interrupted_ip: u32,
    /// Trustlet Table row index, if a trustlet was interrupted.
    pub trustlet: Option<u32>,
    /// Cycles spent by the engine from recognition to the first ISR
    /// instruction.
    pub entry_cycles: u64,
    /// Cycle counter value when the exception was recognized.
    pub at_cycle: u64,
}

/// A platform extension unit giving meaning to the `0xE0..=0xEF` opcodes
/// (used by the Sancus baseline model). The `Any` supertrait lets hosts
/// downcast the installed unit for inspection. `Send` lets a machine
/// carrying an extension unit migrate to a fleet worker thread.
pub trait ExtUnit: std::any::Any + Send {
    /// Executes extension instruction `op` with operands `rd`, `rs1`,
    /// `imm`; returns the cycle cost.
    #[allow(clippy::too_many_arguments)] // mirrors the hardware interface
    fn exec(
        &mut self,
        regs: &mut RegFile,
        sys: &mut SystemBus,
        ip: u32,
        op: u8,
        rd: Reg,
        rs1: Reg,
        imm: u16,
    ) -> Result<u64, Fault>;
}

enum Exec {
    Done(u64),
    Halt,
    Swi(u8),
}

/// Capture levels as const-generic parameters for the monomorphized
/// block loops ([`Machine::exec_block`]): each value of `CAP` compiles a
/// loop whose instrumentation below that level is statically absent —
/// the Off loop contains zero emit-site code, not skipped emit-site
/// code.
pub(crate) const CAP_OFF: u8 = 0;
pub(crate) const CAP_METRICS: u8 = 1;
pub(crate) const CAP_EVENTS: u8 = 2;
pub(crate) const CAP_FULL: u8 = 3;

/// The simulated machine.
pub struct Machine {
    /// Architectural registers.
    pub regs: RegFile,
    /// The memory system (EA-MPU + bus).
    pub sys: SystemBus,
    /// Loader-programmed hardware configuration.
    pub hw: HwConfig,
    /// Cycle counter.
    pub cycles: u64,
    /// Retired-instruction counter.
    pub instret: u64,
    /// Halt state, if halted.
    pub halted: Option<HaltReason>,
    /// Exception log for measurements.
    pub exc_log: Vec<ExcRecord>,
    /// Optional extension unit (Sancus baseline).
    pub ext: Option<Box<dyn ExtUnit>>,
    /// Address of the most recently executed instruction; the EA-MPU
    /// subject of the next instruction fetch (see [`SystemBus::fetch`]).
    pub prev_ip: u32,
    pending_irqs: VecDeque<trustlite_mem::IrqRequest>,
    /// Bit `line` set iff an IRQ for that line is queued — O(1) dedup in
    /// [`Machine::raise_irq`].
    pending_irq_mask: [u64; 4],
    /// Cached `mpu.slot{i}.grants` metric names, built once per slot
    /// count instead of being formatted on every snapshot.
    slot_metric_names: Vec<String>,
    /// Cached `mpu.slot{i}.denials` metric names, same lifecycle.
    slot_denial_names: Vec<String>,
}

impl Machine {
    /// Creates a machine around `sys` with the reset IP at `reset_vector`.
    pub fn new(sys: SystemBus, reset_vector: u32) -> Self {
        let regs = RegFile {
            ip: reset_vector,
            ..RegFile::default()
        };
        Machine {
            regs,
            sys,
            hw: HwConfig::default(),
            cycles: 0,
            instret: 0,
            halted: None,
            exc_log: Vec::new(),
            ext: None,
            prev_ip: reset_vector,
            pending_irqs: VecDeque::new(),
            pending_irq_mask: [0; 4],
            slot_metric_names: Vec::new(),
            slot_denial_names: Vec::new(),
        }
    }

    /// Deep-copies the whole machine for snapshot/fork: registers,
    /// counters, pending interrupts, the full memory system (bus devices,
    /// EA-MPU with its epoch counters, telemetry recorder, predecode
    /// table). Fails with a diagnostic name if a mapped device does not
    /// support snapshotting, or with `"ext"` if an extension unit is
    /// installed — extension units hold opaque host state and the
    /// baselines that use them never fork.
    pub fn snapshot(&self) -> Result<Machine, &'static str> {
        if self.ext.is_some() {
            return Err("ext");
        }
        Ok(Machine {
            regs: self.regs,
            sys: self.sys.snapshot()?,
            hw: self.hw,
            cycles: self.cycles,
            instret: self.instret,
            halted: self.halted,
            exc_log: self.exc_log.clone(),
            ext: None,
            prev_ip: self.prev_ip,
            pending_irqs: self.pending_irqs.clone(),
            pending_irq_mask: self.pending_irq_mask,
            slot_metric_names: self.slot_metric_names.clone(),
            slot_denial_names: self.slot_denial_names.clone(),
        })
    }

    /// Enables or disables the per-instruction trace: a shorthand for
    /// raising the telemetry level to [`ObsLevel::Full`] (the firehose
    /// that replaced the legacy `(cycle, ip, instr)` ring) or dropping it
    /// back to [`ObsLevel::Off`].
    pub fn set_trace(&mut self, enabled: bool) {
        self.sys.obs.set_level(if enabled {
            ObsLevel::Full
        } else {
            ObsLevel::Off
        });
    }

    /// The retired-instruction trace reconstructed from the event ring,
    /// oldest first (requires [`ObsLevel::Full`] while running).
    pub fn trace(&self) -> Vec<(u64, u32, Instr)> {
        self.sys
            .obs
            .ring
            .iter()
            .filter_map(|e| match e {
                Event::InstrRetired {
                    cycle, ip, word, ..
                } => decode(*word).ok().map(|i| (*cycle, *ip, i)),
                _ => None,
            })
            .collect()
    }

    /// Snapshots the metrics registry, folding in the EA-MPU hardware
    /// counters, the machine counters and the cycle attribution table.
    pub fn metrics_report(&mut self) -> MetricsReport {
        let checks = self.sys.mpu.check_count();
        let denials = self.sys.mpu.deny_count();
        let writes = self.sys.mpu.write_count();
        let hits: Vec<u64> = self.sys.mpu.slot_hits().to_vec();
        let slot_denials: Vec<u64> = self.sys.mpu.slot_denials().to_vec();
        if self.slot_metric_names.len() != hits.len() {
            self.slot_metric_names = (0..hits.len())
                .map(|i| format!("mpu.slot{i}.grants"))
                .collect();
            self.slot_denial_names = (0..hits.len())
                .map(|i| format!("mpu.slot{i}.denials"))
                .collect();
        }
        let obs = &mut self.sys.obs;
        obs.metrics.set("cpu.cycles", self.cycles);
        obs.metrics.set("cpu.instret", self.instret);
        obs.metrics.set("mpu.checks", checks);
        obs.metrics.set("mpu.denials", denials);
        obs.metrics.set("mpu.reg_writes", writes);
        for (i, h) in hits.iter().enumerate() {
            if *h > 0 {
                obs.metrics.set(&self.slot_metric_names[i], *h);
            }
        }
        for (i, d) in slot_denials.iter().enumerate() {
            if *d > 0 {
                obs.metrics.set(&self.slot_denial_names[i], *d);
            }
        }
        obs.metrics.set("obs.events_dropped", obs.ring.dropped());
        let pd = self.sys.predecode_stats();
        if pd.hits + pd.misses > 0 {
            let obs = &mut self.sys.obs;
            obs.metrics.set("cpu.predecode.hit", pd.hits);
            obs.metrics.set("cpu.predecode.miss", pd.misses);
            obs.metrics.set("cpu.predecode.flush", pd.flushes);
        }
        let blocks = self.sys.block_stats();
        if blocks.hits + blocks.misses > 0 {
            let hist = self.sys.block_len_histogram().clone();
            let obs = &mut self.sys.obs;
            obs.metrics.set("cpu.block.hit", blocks.hits);
            obs.metrics.set("cpu.block.miss", blocks.misses);
            obs.metrics.set("cpu.block.flush", blocks.flushes);
            obs.metrics.set("cpu.block.instret", blocks.instret);
            obs.metrics.set_histogram("cpu.block.len", hist);
        }
        let obs = &mut self.sys.obs;
        if obs.attr.switch_count() > 0 {
            obs.metrics
                .set("sched.context_switches", obs.attr.switch_count());
        }
        let mut report = obs.metrics.snapshot();
        report.attribution = obs.attr.report();
        report
    }

    /// Queues an external interrupt request (test/diagnostic injection;
    /// peripherals raise theirs through the bus tick). Requests for a
    /// line that is already pending are coalesced, tracked by a per-line
    /// bitmask rather than a queue scan.
    pub fn raise_irq(&mut self, irq: trustlite_mem::IrqRequest) {
        let (w, b) = (usize::from(irq.line >> 6), irq.line & 63);
        if self.pending_irq_mask[w] & (1 << b) == 0 {
            self.pending_irq_mask[w] |= 1 << b;
            self.pending_irqs.push_back(irq);
        }
    }

    /// Returns true if any interrupt is pending delivery.
    pub fn irq_pending(&self) -> bool {
        !self.pending_irqs.is_empty()
    }

    /// Executes one instruction (or delivers one exception/interrupt).
    pub fn step(&mut self) -> StepOutcome {
        if self.halted.is_some() {
            return StepOutcome::Halted;
        }
        // Event/metric stamps read `obs.now()` only behind level gates,
        // and the architectural exc_log stamps from `self.cycles`
        // directly, so the clock mirror can be skipped while telemetry
        // is off.
        if self.sys.obs.active() {
            self.sys.obs.set_now(self.cycles);
        }
        // Deliver a pending maskable interrupt first.
        if self.regs.flags.ie {
            if let Some(irq) = self.pending_irqs.pop_front() {
                self.pending_irq_mask[usize::from(irq.line >> 6)] &= !(1 << (irq.line & 63));
                let vector = vectors::irq_vector(irq.line);
                let ip = self.regs.ip;
                return self.take_exception(vector, irq.handler, ip, irq.line as u32, 0);
            }
        }
        let ip = self.regs.ip;
        let (word, instr) = match self.sys.fetch_instr(self.prev_ip, ip) {
            Ok(wi) => wi,
            Err(f) => return self.take_fault(f),
        };
        match self.exec(ip, instr) {
            Ok(Exec::Done(cost)) => {
                self.prev_ip = ip;
                self.observe_retired(ip, word, cost);
                self.retire(cost);
                StepOutcome::Retired
            }
            Ok(Exec::Halt) => {
                self.prev_ip = ip;
                self.observe_retired(ip, word, costs::BASE);
                self.retire(costs::BASE);
                self.halted = Some(HaltReason::Halt { ip });
                StepOutcome::Halted
            }
            Ok(Exec::Swi(arg)) => {
                self.prev_ip = ip;
                // The swi itself retires (and costs a cycle) before the
                // exception engine takes over.
                self.observe_retired(ip, word, costs::BASE);
                self.cycles += costs::BASE;
                self.instret += 1;
                let vector = vectors::swi_vector(arg);
                self.take_exception(vector, None, ip + 4, arg as u32, 0)
            }
            Err(f) => self.take_fault(f),
        }
    }

    /// Telemetry hook for one retired instruction: the firehose event plus
    /// cycle attribution to the region owning `ip`.
    #[inline(always)]
    fn observe_retired(&mut self, ip: u32, word: u32, cost: u64) {
        if self.sys.obs.active() {
            if self.sys.obs.firehose_on() {
                let cycle = self.cycles;
                self.sys.obs.emit_fine(Event::InstrRetired {
                    cycle,
                    ip,
                    word,
                    cost,
                });
            }
            self.sys.obs.charge(ip, cost);
        }
    }

    #[inline(always)]
    fn retire(&mut self, cost: u64) {
        self.cycles += cost;
        self.instret += 1;
        if self.sys.tick_quick(cost) {
            return;
        }
        for irq in self.sys.tick_slow() {
            self.raise_irq(irq);
        }
    }

    /// The single loop body shared by [`Machine::run`] and
    /// [`Machine::run_until`]: steps until `pred` holds, the machine
    /// halts, or the budget runs out, evaluating `pred` exactly once per
    /// machine state.
    fn run_inner(&mut self, max_steps: u64, pred: impl Fn(&Machine) -> bool) -> bool {
        if pred(self) {
            return true;
        }
        for _ in 0..max_steps {
            let halted = matches!(self.step(), StepOutcome::Halted);
            if pred(self) {
                return true;
            }
            if halted {
                return false;
            }
        }
        false
    }

    /// Runs until `pred` holds, the machine halts, or `max_steps` step
    /// events elapse. Returns true if `pred` became true.
    pub fn run_until(&mut self, max_steps: u64, pred: impl Fn(&Machine) -> bool) -> bool {
        self.run_inner(max_steps, pred)
    }

    /// Runs until halt or `max_steps` step events.
    ///
    /// Under [`Engine::Superblock`] (the default) this dispatches whole
    /// cached blocks per iteration ([`Machine::step_block`]); the step budget is
    /// still accounted per step event, so `run(n)` stops the machine in
    /// exactly the state `n` calls to [`Machine::step`] would.
    /// [`Machine::run_until`] deliberately stays on the per-instruction
    /// path: its predicate is specified to be evaluated after every step
    /// event.
    pub fn run(&mut self, max_steps: u64) -> RunExit {
        if self.sys.engine() == Engine::Superblock {
            self.run_blocks(max_steps);
        } else {
            self.run_inner(max_steps, |m| m.halted.is_some());
        }
        match self.halted {
            Some(r) => RunExit::Halted(r),
            None => RunExit::StepLimit,
        }
    }

    /// The block-dispatch run loop: consume cached superblocks while
    /// possible, fall back to one [`Machine::step`] whenever the block
    /// path cannot make progress (pending interrupt, unbuildable pc,
    /// system instruction, halt).
    fn run_blocks(&mut self, max_steps: u64) {
        let mut remaining = max_steps;
        while remaining > 0 && self.halted.is_none() {
            let consumed = self.step_block(remaining);
            if consumed == 0 {
                self.step();
                remaining -= 1;
            } else {
                remaining -= consumed;
            }
        }
    }

    /// Executes at most `budget` step events through the superblock
    /// cache, returning how many were consumed (0 = the caller must
    /// single-step). Dispatches to one of eight loops monomorphized over
    /// the capture level and whether MPU enforcement is off
    /// (`TRUSTED`) — the airbender-style const-generic machine
    /// configuration, so the Off/Metrics loops carry no emit-site code.
    fn step_block(&mut self, budget: u64) -> u64 {
        if self.halted.is_some() || (self.regs.flags.ie && !self.pending_irqs.is_empty()) {
            return 0;
        }
        let Some(idx) = self.sys.block_lookup_or_build(self.regs.ip) else {
            return 0;
        };
        match (self.sys.obs.level(), self.sys.enforce) {
            (ObsLevel::Off, true) => self.exec_block::<CAP_OFF, false>(idx, budget),
            (ObsLevel::Off, false) => self.exec_block::<CAP_OFF, true>(idx, budget),
            (ObsLevel::Metrics, true) => self.exec_block::<CAP_METRICS, false>(idx, budget),
            (ObsLevel::Metrics, false) => self.exec_block::<CAP_METRICS, true>(idx, budget),
            (ObsLevel::Events, true) => self.exec_block::<CAP_EVENTS, false>(idx, budget),
            (ObsLevel::Events, false) => self.exec_block::<CAP_EVENTS, true>(idx, budget),
            (ObsLevel::Full, true) => self.exec_block::<CAP_FULL, false>(idx, budget),
            (ObsLevel::Full, false) => self.exec_block::<CAP_FULL, true>(idx, budget),
        }
    }

    /// The monomorphized superblock loop. Per micro-op it reproduces the
    /// exact [`Machine::step`] sequence — clock mirror, fetch check (memo
    /// replay or full check), execute, retire events, attribution,
    /// cycle/instret bump, peripheral tick — so cycles, counters, faults,
    /// attribution and the event stream are bit-identical to
    /// single-stepping; the clock mirror and attribution are settled once
    /// per pass wherever per-op updates provably could not be told
    /// apart (see the `covered` note in the body). Exits exactly
    /// on: budget exhaustion, a deliverable interrupt becoming pending
    /// (tick-raised IRQs included — the tick runs per op), any block
    /// flush (self-modifying code), a fault, or the end of the block. A
    /// block whose final control transfer targets its own start restarts
    /// in place, which keeps tight loops resident.
    fn exec_block<const CAP: u8, const TRUSTED: bool>(&mut self, idx: usize, budget: u64) -> u64 {
        let gen = self.sys.blocks_gen();
        let (start, len, last_cf) = self.sys.block_head(idx);
        // The micro-op vector is checked *out* of the table for the
        // pass: the loop indexes a plain local `Vec` (no per-op table
        // probe, and lazily learned grant memos are written straight
        // into the ops), and the epilogue returns it — unless the entry
        // was flushed meanwhile, in which case it is dropped.
        let mut ops = self.sys.block_take_ops(idx);
        let ie = self.regs.flags.ie;
        // The architectural counters and the fetch subject live in
        // locals for the whole quantum so the loop body keeps them in
        // registers; every exit flushes them back, a fault's before the
        // exception engine reads and charges `self.cycles` and makes the
        // handler the fetch subject.
        let mut cycles = self.cycles;
        let mut instret = self.instret;
        let mut prev_ip = self.prev_ip;
        // Nonzero when the current subject window covers the whole
        // block: memos carrying exactly this epoch replay with a single
        // compare plus a batched counter bump (`EaMpu::replay_hit`) —
        // the per-op subject refresh is provably a no-op. Any op that
        // touches memory may reprogram the MPU, so the epoch is
        // re-checked after every non-pure op, and recomputed on
        // self-loop restart once the subject is in-block.
        let mut hot_epoch = if TRUSTED {
            0
        } else {
            self.sys.mpu.block_epoch(prev_ip, start, len)
        };
        // Clean-pass fetch batching: one slow pass validates that every
        // fetch memo replays under `hot_epoch` via a single slot; from
        // the next self-loop restart on, the per-op fetch check is one
        // register increment (`fetch_hits`), folded into the MPU
        // counters at exit. Any cold fetch, mixed slot, or epoch
        // retirement drops back to the per-op path.
        let mut fast_fetch = false;
        let mut fetch_hits = 0u64;
        let mut fetch_slot = 0u16;
        let mut seen_slot = false;
        let mut slots_mixed = false;
        let mut pass_cold = false;
        // Pure ops never touch the bus, so their cycles accumulate in a
        // local register against the precomputed tick headroom:
        // `tick_acc >= tick_slack` holds at exactly the op boundary
        // where per-op ticking would find `pending >= armed`. The
        // balance is flushed into the bus before anything that can read
        // `pending` — a memory op (catch-up delivers cycles to
        // devices), a fault (exception entry stores to the stack), or
        // the epilogue — and the slack is re-read after any op that can
        // move `armed`.
        let mut tick_acc = 0u64;
        let mut tick_slack = self.sys.tick_slack();
        // Observation is settled per pass (CAP >= CAP_METRICS). The
        // first op of a pass charges through `Recorder::charge` exactly
        // as single-stepping does (domain switch, `ContextSwitch`
        // event); if the range it matched covers the whole block, every
        // later charge of the pass — self-loop restarts included —
        // would hit attribution's fast path into the same domain, so
        // the costs sum in `attr_acc` and are settled once on exit or
        // before a fault enters the exception engine. `now` shadows the
        // clock mirror: only event emission reads `obs.now()`, so below
        // Events it is written once, with the value per-op mirroring
        // would have left (the start cycle of the last op begun).
        let mut covered = false;
        let mut attr_acc = 0u64;
        let mut now = self.sys.obs.now();
        let mut consumed = 0u64;
        let mut retired = 0u64;
        let mut fault = None;
        let mut i = 0usize;
        let mut pc = start;
        loop {
            // Only the budget needs a per-op test here: a deliverable
            // interrupt can appear solely in the tick path below (and
            // the entry precondition rules one out at the top), and the
            // flush generation can move solely under a store — both are
            // re-checked exactly where they can change.
            if consumed >= budget {
                break;
            }
            if i >= ops.len() {
                break;
            }
            // Straight-pure run batching (every loop but Full, whose
            // firehose wants one event pair per op): the run is
            // register-only, fixed-cost, cannot fault, branch, store,
            // or reprogram the MPU, and its fetch checks are already
            // reduced to a counter (`fast_fetch`, or enforcement off).
            // If the whole run fits the remaining budget and stays
            // strictly inside the tick headroom, no per-op check could
            // fire anywhere in it — execute it back-to-back and settle
            // every counter once. With telemetry on, the pass must also
            // be `covered`, so the run's attribution is one add. Boundary
            // cases (budget edge, tick edge, validation pass, uncovered
            // pass) fall through to the per-op path.
            if CAP < CAP_FULL
                && (CAP == CAP_OFF || covered)
                && (TRUSTED || fast_fetch)
                && ops[i].run > 1
            {
                let n = ops[i].run as usize;
                let rc = ops[i].run_cost as u64;
                if consumed + n as u64 <= budget && tick_acc + rc < tick_slack {
                    // Each op runs through the stepper's own arm; the ip
                    // and cost it returns are superseded by the single
                    // `ip` write and `run_cost` charge below.
                    let mut at = pc;
                    for o in &ops[i..i + n] {
                        let _ = Self::exec_pure(&mut self.regs, at, o.instr);
                        at = at.wrapping_add(4);
                    }
                    if CAP >= CAP_METRICS {
                        // The last op's own `run_cost` is its cost.
                        now = cycles + rc - ops[i + n - 1].run_cost as u64;
                        attr_acc += rc;
                    }
                    i += n;
                    pc = start.wrapping_add(4 * i as u32);
                    self.regs.ip = pc;
                    prev_ip = pc.wrapping_sub(4);
                    cycles += rc;
                    instret += n as u64;
                    consumed += n as u64;
                    retired += n as u64;
                    tick_acc += rc;
                    if !TRUSTED {
                        fetch_hits += n as u64;
                    }
                    if i as u32 == len {
                        // A run can only end the block when it fell
                        // through the op cap (`last_cf` blocks end on a
                        // control transfer, which is never in a run).
                        break;
                    }
                    continue;
                }
            }
            let op = &mut ops[i];
            if CAP >= CAP_METRICS {
                now = cycles;
                if CAP >= CAP_EVENTS {
                    self.sys.obs.set_now(cycles);
                }
            }
            let subject = prev_ip;
            let mut deferred_fetch_event = false;
            if !TRUSTED {
                let replayed = if fast_fetch {
                    fetch_hits += 1;
                    true
                } else {
                    match op.fetch {
                        Some((epoch, slot)) if hot_epoch != 0 && epoch == hot_epoch => {
                            self.sys.mpu.replay_hit(slot);
                            if !seen_slot {
                                seen_slot = true;
                                fetch_slot = slot;
                            } else if slot != fetch_slot {
                                slots_mixed = true;
                            }
                            true
                        }
                        Some((epoch, slot)) => {
                            pass_cold = true;
                            self.sys.mpu.exec_check_cached(subject, epoch, slot)
                        }
                        None => {
                            pass_cold = true;
                            false
                        }
                    }
                };
                if replayed {
                    if CAP >= CAP_FULL {
                        if op.pure {
                            deferred_fetch_event = true;
                        } else {
                            self.sys.obs.emit_fine(Event::MpuCheck {
                                cycle: cycles,
                                subject,
                                addr: pc,
                                kind: trustlite_obs::AccessClass::Execute,
                                verdict: trustlite_obs::Verdict::Allow,
                            });
                        }
                    }
                } else {
                    match self.sys.block_fetch_cold(subject, pc) {
                        Ok(memo) => op.fetch = memo,
                        Err(f) => {
                            fault = Some(f);
                            break;
                        }
                    }
                }
            }
            if !op.pure && tick_acc != 0 {
                // The op is about to reach the bus: settle the locally
                // accounted cycles first so catch-up sees exact timing.
                // `tick_acc < tick_slack` here (the pure path flushes on
                // crossing), so no interrupt can be due yet.
                let _ = self.sys.tick_quick(std::mem::take(&mut tick_acc));
            }
            match self.exec_op::<CAP, TRUSTED>(op, pc, hot_epoch) {
                Ok(cost) => {
                    prev_ip = pc;
                    if CAP >= CAP_METRICS {
                        if CAP >= CAP_FULL {
                            let event = Event::InstrRetired {
                                cycle: cycles,
                                ip: pc,
                                word: op.word,
                                cost,
                            };
                            if deferred_fetch_event {
                                // Pure op whose fetch check was a memo
                                // replay: nothing was emitted in between,
                                // so the pair lands as one ring batch in
                                // the slow path's order.
                                self.sys.obs.emit_fine_pair(
                                    Event::MpuCheck {
                                        cycle: cycles,
                                        subject,
                                        addr: pc,
                                        kind: trustlite_obs::AccessClass::Execute,
                                        verdict: trustlite_obs::Verdict::Allow,
                                    },
                                    event,
                                );
                            } else {
                                self.sys.obs.emit_fine(event);
                            }
                        }
                        if covered {
                            attr_acc += cost;
                        } else {
                            self.sys.obs.charge(pc, cost);
                            if i == 0 {
                                covered = self.sys.obs.attr.covers(start, 4 * len);
                            }
                        }
                    }
                    cycles += cost;
                    instret += 1;
                    consumed += 1;
                    retired += 1;
                    if op.pure {
                        tick_acc += cost;
                        if tick_acc >= tick_slack {
                            if !self.sys.tick_quick(std::mem::take(&mut tick_acc)) {
                                for irq in self.sys.tick_slow() {
                                    self.raise_irq(irq);
                                }
                                tick_slack = self.sys.tick_slack();
                                if ie && !self.pending_irqs.is_empty() {
                                    // The tick raised a deliverable
                                    // interrupt: stop on this op
                                    // boundary, exactly where
                                    // single-stepping would recognise
                                    // it.
                                    break;
                                }
                            } else {
                                tick_slack = self.sys.tick_slack();
                            }
                        }
                    } else {
                        if !self.sys.tick_quick(cost) {
                            for irq in self.sys.tick_slow() {
                                self.raise_irq(irq);
                            }
                            if ie && !self.pending_irqs.is_empty() {
                                break;
                            }
                        }
                        // The op (or its tick) may have moved the timer
                        // arming through a device access.
                        tick_slack = self.sys.tick_slack();
                    }
                    if !op.pure {
                        if self.sys.blocks_gen() != gen {
                            // The store invalidated cached blocks —
                            // possibly this one (self-modifying code):
                            // stop before the next op fetch.
                            break;
                        }
                        if !TRUSTED && hot_epoch != 0 && self.sys.mpu.cache_epoch() != hot_epoch {
                            // The store/load may have reprogrammed the
                            // MPU (the grant cache retired the epoch):
                            // fall back to per-op replay validation.
                            hot_epoch = 0;
                            fast_fetch = false;
                        }
                    }
                    i += 1;
                    pc = pc.wrapping_add(4);
                    if i as u32 == len {
                        if last_cf && self.regs.ip == start {
                            // Self-loop: restart the resident block.
                            if !TRUSTED {
                                if hot_epoch == 0 {
                                    // The subject is now in-block, so
                                    // the window test that failed
                                    // against the outside predecessor
                                    // may succeed; the memos still need
                                    // one slow validation pass.
                                    hot_epoch = self.sys.mpu.block_epoch(prev_ip, start, len);
                                    seen_slot = false;
                                    slots_mixed = false;
                                } else if !fast_fetch {
                                    // The pass just completed replayed
                                    // every fetch memo under the hot
                                    // epoch through one slot: from here
                                    // on a fetch check is one register
                                    // increment.
                                    fast_fetch = seen_slot && !slots_mixed && !pass_cold;
                                }
                                pass_cold = false;
                            }
                            i = 0;
                            pc = start;
                            continue;
                        }
                        break;
                    }
                }
                Err(f) => {
                    if CAP >= CAP_FULL && deferred_fetch_event {
                        // Flush the deferred fetch event before the
                        // exception events so the stream order matches
                        // the slow path.
                        self.sys.obs.emit_fine(Event::MpuCheck {
                            cycle: cycles,
                            subject,
                            addr: pc,
                            kind: trustlite_obs::AccessClass::Execute,
                            verdict: trustlite_obs::Verdict::Allow,
                        });
                    }
                    fault = Some(f);
                    break;
                }
            }
        }
        if tick_acc != 0 {
            let _ = self.sys.tick_quick(tick_acc);
        }
        if CAP >= CAP_METRICS {
            self.settle_obs(attr_acc, now);
        }
        self.cycles = cycles;
        self.instret = instret;
        self.prev_ip = prev_ip;
        if let Some(f) = fault {
            // The one fault exit, for fetch and execute faults alike: the
            // pass is settled above, so the exception engine reads and
            // charges exact counters, and the handler it enters stays the
            // next fetch subject. The faulting op is one step event.
            self.take_fault(f);
            consumed += 1;
        }
        if !TRUSTED {
            self.sys.mpu.add_replay_hits(fetch_slot, fetch_hits);
            self.sys.mpu.flush_replays();
        }
        self.sys.block_put_ops(idx, start, ops);
        self.sys.note_block_exec(retired);
        consumed
    }

    /// Settles a block pass's deferred observation: the attribution
    /// batched against a covering range, and the clock mirror.
    #[inline(always)]
    fn settle_obs(&mut self, attr_acc: u64, now: u64) {
        self.sys.obs.attr.charge_current(attr_acc);
        self.sys.obs.set_now(now);
    }

    /// Executes one superblock micro-op through the stepper's own arms:
    /// register-only ops through [`Machine::exec_pure`], data-memory ops
    /// through [`Machine::exec_mem`] with the data port the loop allows —
    /// grant-memo replay ([`MemoReplay`]) when enforcement is on and the
    /// firehose is off, the full check otherwise (the memoised path
    /// produces no `MpuCheck` events, so it is statically absent from the
    /// `CAP_FULL` loop). The block builder admits no other instruction.
    #[inline(always)]
    fn exec_op<const CAP: u8, const TRUSTED: bool>(
        &mut self,
        op: &mut MicroOp,
        pc: u32,
        hot_epoch: u64,
    ) -> Result<u64, Fault> {
        // `pure` (build-time) is exactly "exec_pure handles it", so this
        // single predictable branch picks the right arm set.
        if op.pure {
            let (next, cost) = Self::exec_pure(&mut self.regs, pc, op.instr)
                .expect("pure micro-ops are register-only");
            self.regs.ip = next;
            return Ok(cost);
        }
        let cost = if !TRUSTED && CAP < CAP_FULL {
            let port = MemoReplay {
                memo: &mut op.data,
                hot_epoch,
            };
            self.exec_mem(pc, op.instr, port)?
        } else {
            self.exec_mem(pc, op.instr, Checked)?
        };
        Ok(cost.expect("impure micro-ops are data-memory ops"))
    }

    fn take_fault(&mut self, f: Fault) -> StepOutcome {
        if self.sys.obs.active() {
            let name = match f {
                Fault::Mpu(_) => "fault.mpu",
                Fault::Bus { .. } => "fault.bus",
                Fault::Illegal { .. } => "fault.illegal",
            };
            self.sys.obs.metrics.inc(name);
        }
        let vector = vectors::fault_vector(&f);
        let err_code = match f {
            Fault::Mpu(m) => m.kind.code(),
            Fault::Bus { .. } => 0x100,
            Fault::Illegal { word, .. } => word,
        };
        self.take_exception(vector, None, f.ip(), err_code, f.fault_addr())
    }

    /// The exception engine (Figure 4). `handler_override` is the
    /// peripheral-programmed ISR address, if any.
    fn take_exception(
        &mut self,
        vector: u8,
        handler_override: Option<u32>,
        interrupted_ip: u32,
        err_code: u32,
        fault_addr: u32,
    ) -> StepOutcome {
        let at_cycle = self.cycles;
        let mut entry_cycles = costs::EXC_FLUSH;
        let mut trustlet: Option<u32> = None;
        let mut pushed_ip = interrupted_ip;
        let mut pushed_sp = self.regs.sp;
        let mut saved_sp = 0u32;

        if self.hw.secure_exceptions && self.hw.tt_count > 0 {
            entry_cycles += costs::SEC_DETECT;
            let hit = match ttable::find_by_ip(
                &mut self.sys,
                self.hw.tt_base,
                self.hw.tt_count,
                interrupted_ip,
            ) {
                Ok(h) => h,
                Err(err) => {
                    return self.double_fault(Fault::Bus {
                        ip: interrupted_ip,
                        err,
                    });
                }
            };
            if let Some((idx, row)) = hit {
                trustlet = Some(idx);
                // (1) Store the CPU state to the current (trustlet) stack:
                // return IP, FLAGS, r0..r7 — all but the stack pointer.
                // These stores are validated with the *trustlet* as the
                // subject; if its stack is broken, this faults and the
                // platform double-faults (paper footnote 1).
                let mut words = [0u32; 10];
                words[0] = interrupted_ip;
                words[1] = self.regs.flags.to_word();
                words[2..].copy_from_slice(&self.regs.gprs);
                for w in words {
                    let new_sp = self.regs.sp.wrapping_sub(4);
                    if let Err(f) = self.sys.store32(interrupted_ip, new_sp, w) {
                        return self.double_fault(f);
                    }
                    self.regs.sp = new_sp;
                    entry_cycles += costs::SEC_SAVE_WORD;
                }
                // (2) Store SP into the Trustlet Table row and clear GPRs.
                let sp_addr = TrustletRow::saved_sp_addr(self.hw.tt_base, idx);
                if let Err(err) = self.sys.hw_write32(sp_addr, self.regs.sp) {
                    return self.double_fault(Fault::Bus {
                        ip: interrupted_ip,
                        err,
                    });
                }
                entry_cycles += costs::SEC_TT_WRITE;
                saved_sp = self.regs.sp;
                self.regs.clear_gprs();
                entry_cycles += costs::SEC_CLEARED_REGS * costs::SEC_CLEAR_REG;
                if self.sys.obs.active() {
                    self.sys.obs.emit(Event::RegsCleared {
                        cycle: at_cycle,
                        count: costs::SEC_CLEARED_REGS as u32,
                    });
                }
                // Sanitize what the untrusted handler will see: the
                // reported IP is the trustlet's entry vector and the saved
                // SP slot is zeroed (the real one lives in the table).
                pushed_ip = row.code_start;
                pushed_sp = 0;
            }
        }

        // (3) Switch to the OS stack unless already executing from the OS
        // region.
        entry_cycles += costs::EXC_LOAD_OS_SP;
        let (os_start, os_end) = self.hw.os_region;
        let in_os = interrupted_ip >= os_start && interrupted_ip < os_end;
        if !in_os {
            match self.sys.hw_read32(self.hw.os_sp_cell) {
                Ok(sp) => self.regs.sp = sp,
                Err(err) => {
                    return self.double_fault(Fault::Bus {
                        ip: interrupted_ip,
                        err,
                    })
                }
            }
        }

        // Push the exception frame: SP, IP, FLAGS, error code, fault
        // address (top of stack = fault address).
        let frame = [
            pushed_sp,
            pushed_ip,
            self.regs.flags.to_word(),
            err_code,
            fault_addr,
        ];
        for w in frame {
            self.regs.sp = self.regs.sp.wrapping_sub(4);
            if let Err(err) = self.sys.hw_write32(self.regs.sp, w) {
                return self.double_fault(Fault::Bus {
                    ip: interrupted_ip,
                    err,
                });
            }
        }
        entry_cycles += costs::EXC_SAVE_MIN_CTX + costs::EXC_ERROR_PARAMS;

        // (4) Resolve and enter the handler with interrupts masked.
        self.regs.flags.ie = false;
        entry_cycles += costs::EXC_VECTOR;
        let handler = match handler_override {
            Some(h) => h,
            None => {
                let slot = self.hw.idt_base + 4 * (vector as u32 % vectors::IDT_ENTRIES);
                match self.sys.hw_read32(slot) {
                    Ok(h) => h,
                    Err(err) => {
                        return self.double_fault(Fault::Bus {
                            ip: interrupted_ip,
                            err,
                        })
                    }
                }
            }
        };
        if handler == 0 {
            // Unconfigured vector: architectural dead end.
            return self.double_fault(Fault::Bus {
                ip: interrupted_ip,
                err: BusError::Unmapped {
                    addr: self.hw.idt_base + 4 * vector as u32,
                },
            });
        }
        // Hardware vectoring is a legitimate control transfer by
        // construction (the IDT and peripheral handler registers are
        // loader-governed): the handler becomes its own fetch subject.
        self.regs.ip = handler;
        self.prev_ip = handler;
        self.cycles += entry_cycles;
        self.exc_log.push(ExcRecord {
            vector,
            interrupted_ip,
            trustlet,
            entry_cycles,
            at_cycle,
        });
        if self.sys.obs.active() {
            self.sys.obs.charge_engine(entry_cycles);
            self.sys.obs.metrics.inc("exc.taken");
            if trustlet.is_some() {
                self.sys.obs.metrics.inc("exc.trustlet_interrupts");
            }
            self.sys
                .obs
                .metrics
                .observe("exc.entry_cycles", entry_cycles);
            self.sys.obs.emit(Event::ExceptionEnter {
                cycle: at_cycle,
                frame: Box::new(trustlite_obs::ExcFrame {
                    vector,
                    trustlet,
                    interrupted_ip,
                    saved_sp,
                    cycles: entry_cycles,
                }),
            });
        }
        StepOutcome::ExceptionTaken { vector, trustlet }
    }

    fn double_fault(&mut self, f: Fault) -> StepOutcome {
        self.halted = Some(HaltReason::DoubleFault(f));
        StepOutcome::Halted
    }

    /// Executes a register-only instruction — no bus, MPU, flag or
    /// telemetry traffic, no way to fault — returning the next `ip` and
    /// its cost (the caller writes `ip`), or `None` when the instruction
    /// needs another arm.
    ///
    /// The one definition of these instructions: the per-step
    /// interpreter, the superblock loop's per-op path and its
    /// straight-pure runs all execute them here (inlined, keeping the
    /// monomorphized hot path call-free for the ALU/branch ops that
    /// dominate real instruction mixes), and the block builder derives a
    /// straight op's static cost from it.
    #[inline(always)]
    pub(crate) fn exec_pure(r: &mut RegFile, ip: u32, i: Instr) -> Option<(u32, u64)> {
        use trustlite_isa::instr::AluOp;
        let next = ip.wrapping_add(4);
        let taken = |target: u32| Some((target, costs::BASE + costs::TAKEN_CF));
        let mut cost = costs::BASE;
        match i {
            Instr::Nop => {}
            Instr::Alu { op, rd, rs1, rs2 } => {
                let v = op.apply(r.get(rs1), r.get(rs2));
                r.set(rd, v);
                cost += match op {
                    AluOp::Mul => costs::MUL_EXTRA,
                    AluOp::Divu | AluOp::Remu => costs::DIV_EXTRA,
                    _ => 0,
                };
            }
            Instr::Mov { rd, rs1 } => {
                let v = r.get(rs1);
                r.set(rd, v);
            }
            Instr::Not { rd, rs1 } => {
                let v = !r.get(rs1);
                r.set(rd, v);
            }
            Instr::Addi { rd, rs1, imm } => {
                let v = r.get(rs1).wrapping_add(imm as i32 as u32);
                r.set(rd, v);
            }
            Instr::Andi { rd, rs1, imm } => {
                let v = r.get(rs1) & imm as u32;
                r.set(rd, v);
            }
            Instr::Ori { rd, rs1, imm } => {
                let v = r.get(rs1) | imm as u32;
                r.set(rd, v);
            }
            Instr::Xori { rd, rs1, imm } => {
                let v = r.get(rs1) ^ imm as u32;
                r.set(rd, v);
            }
            Instr::Shli { rd, rs1, imm } => {
                let v = r.get(rs1).wrapping_shl(imm as u32);
                r.set(rd, v);
            }
            Instr::Shri { rd, rs1, imm } => {
                let v = r.get(rs1).wrapping_shr(imm as u32);
                r.set(rd, v);
            }
            Instr::Srai { rd, rs1, imm } => {
                let v = ((r.get(rs1) as i32) >> imm) as u32;
                r.set(rd, v);
            }
            Instr::Movi { rd, imm } => {
                r.set(rd, imm as i32 as u32);
            }
            Instr::Lui { rd, imm } => {
                r.set(rd, (imm as u32) << 16);
            }
            Instr::Jmp { off } => {
                return taken(next.wrapping_add(off as i32 as u32));
            }
            Instr::Jr { rs1 } => {
                return taken(r.get(rs1));
            }
            Instr::Branch {
                cond,
                rs1,
                rs2,
                off,
            } => {
                if cond.eval(r.get(rs1), r.get(rs2)) {
                    return taken(next.wrapping_add(off as i32 as u32));
                }
            }
            _ => return None,
        }
        Some((next, cost))
    }

    /// Executes a block-eligible data-memory instruction — every
    /// [`Instr::is_memory`] op but `Popf` — returning its cost, or
    /// `Ok(None)` for any other instruction. The one definition of these
    /// instructions for both interpreters: the word-sized accesses (`Lw`,
    /// `Sw`, `Push`, `Pop`, `Pushf`, `Call`, `Callr`, `Ret`) go through
    /// `port` (see [`DataPort`]), so the per-step interpreter plugs in
    /// the full check and the superblock loop its grant-memo replay.
    #[inline(always)]
    pub(crate) fn exec_mem<P: DataPort>(
        &mut self,
        ip: u32,
        i: Instr,
        mut port: P,
    ) -> Result<Option<u64>, Fault> {
        let next = ip.wrapping_add(4);
        let ea = |r: &RegFile, rs1: Reg, disp: i16| r.get(rs1).wrapping_add(disp as i32 as u32);
        let (r, sys) = (&mut self.regs, &mut self.sys);
        let pushed = r.sp.wrapping_sub(4);
        let popped = r.sp.wrapping_add(4);
        let new_ip = match i {
            Instr::Lw { rd, rs1, disp } => {
                let v = port.load32(sys, ip, ea(r, rs1, disp))?;
                r.set(rd, v);
                next
            }
            Instr::Sw { rs1, rs2, disp } => {
                port.store32(sys, ip, ea(r, rs1, disp), r.get(rs2))?;
                next
            }
            Instr::Lb { rd, rs1, disp } => {
                let v = sys.load8(ip, ea(r, rs1, disp))?;
                r.set(rd, v as u32);
                next
            }
            Instr::Lbs { rd, rs1, disp } => {
                let v = sys.load8(ip, ea(r, rs1, disp))?;
                r.set(rd, v as i8 as i32 as u32);
                next
            }
            Instr::Lh { rd, rs1, disp } => {
                let v = sys.load16(ip, ea(r, rs1, disp))?;
                r.set(rd, v as u32);
                next
            }
            Instr::Lhs { rd, rs1, disp } => {
                let v = sys.load16(ip, ea(r, rs1, disp))?;
                r.set(rd, v as i16 as i32 as u32);
                next
            }
            Instr::Sh { rs1, rs2, disp } => {
                sys.store16(ip, ea(r, rs1, disp), r.get(rs2) as u16)?;
                next
            }
            Instr::Sb { rs1, rs2, disp } => {
                sys.store8(ip, ea(r, rs1, disp), r.get(rs2) as u8)?;
                next
            }
            Instr::Push { rs } => {
                port.store32(sys, ip, pushed, r.get(rs))?;
                r.sp = pushed;
                next
            }
            Instr::Pop { rd } => {
                let v = port.load32(sys, ip, r.sp)?;
                r.sp = popped;
                r.set(rd, v);
                next
            }
            Instr::Pushf => {
                port.store32(sys, ip, pushed, r.flags.to_word())?;
                r.sp = pushed;
                next
            }
            Instr::Call { off } => {
                port.store32(sys, ip, pushed, next)?;
                r.sp = pushed;
                next.wrapping_add(off as i32 as u32)
            }
            Instr::Callr { rs1 } => {
                let target = r.get(rs1);
                port.store32(sys, ip, pushed, next)?;
                r.sp = pushed;
                target
            }
            Instr::Ret => {
                let target = port.load32(sys, ip, r.sp)?;
                r.sp = popped;
                target
            }
            _ => return Ok(None),
        };
        r.ip = new_ip;
        let taken = if i.is_control_flow() {
            costs::TAKEN_CF
        } else {
            0
        };
        Ok(Some(costs::BASE + costs::MEM_EXTRA + taken))
    }

    /// Executes one instruction for [`Machine::step`]: register-only ops
    /// through [`Machine::exec_pure`], data-memory ops through
    /// [`Machine::exec_mem`] with the full check, and the system
    /// instructions — never block micro-ops — here.
    fn exec(&mut self, ip: u32, i: Instr) -> Result<Exec, Fault> {
        if let Some((next, cost)) = Self::exec_pure(&mut self.regs, ip, i) {
            self.regs.ip = next;
            return Ok(Exec::Done(cost));
        }
        if let Some(cost) = self.exec_mem(ip, i, Checked)? {
            return Ok(Exec::Done(cost));
        }
        let next = ip.wrapping_add(4);
        let r = &mut self.regs;
        match i {
            Instr::Halt => Ok(Exec::Halt),
            Instr::Swi(v) => Ok(Exec::Swi(v)),
            Instr::Di => {
                r.flags.ie = false;
                r.ip = next;
                Ok(Exec::Done(costs::BASE))
            }
            Instr::Ei => {
                r.flags.ie = true;
                r.ip = next;
                Ok(Exec::Done(costs::BASE))
            }
            Instr::Iret => {
                // Pop: fault addr, error code, FLAGS, IP, SP (reverse of
                // the push order). Read all words before committing.
                let sp = r.sp;
                let mut vals = [0u32; 5];
                for (k, v) in vals.iter_mut().enumerate() {
                    *v = self.sys.load32(ip, sp.wrapping_add(4 * k as u32))?;
                }
                let [_fault_addr, _err_code, flags, new_ip, new_sp] = vals;
                self.regs.flags = Flags::from_word(flags);
                self.regs.ip = new_ip;
                self.regs.sp = new_sp;
                if self.sys.obs.active() {
                    self.sys.obs.metrics.inc("exc.returns");
                    self.sys
                        .obs
                        .metrics
                        .observe("exc.exit_cycles", costs::IRET_TOTAL);
                    let cycle = self.sys.obs.now();
                    self.sys.obs.emit(Event::ExceptionExit {
                        cycle,
                        resumed_ip: new_ip,
                        cycles: costs::IRET_TOTAL,
                    });
                }
                Ok(Exec::Done(costs::IRET_TOTAL))
            }
            Instr::Popf => {
                let v = self.sys.load32(ip, r.sp)?;
                self.regs.sp = self.regs.sp.wrapping_add(4);
                self.regs.flags = Flags::from_word(v);
                self.regs.ip = next;
                Ok(Exec::Done(costs::BASE + costs::MEM_EXTRA))
            }
            Instr::Ext { op, rd, rs1, imm } => {
                let mut ext = match self.ext.take() {
                    Some(e) => e,
                    None => {
                        return Err(Fault::Illegal {
                            ip,
                            word: trustlite_isa::encode(i),
                            err: trustlite_isa::DecodeError::UnknownOpcode(0xe0 | op),
                        })
                    }
                };
                let result = ext.exec(&mut self.regs, &mut self.sys, ip, op, rd, rs1, imm);
                self.ext = Some(ext);
                let cost = result?;
                self.regs.ip = next;
                Ok(Exec::Done(costs::BASE + cost))
            }
            _ => unreachable!("register-only and data-memory ops are handled above"),
        }
    }
}
