//! Differential property test for the superblock trace engine: random
//! instruction soups — every block-eligible opcode: ALU and immediate
//! ops, moves, word/halfword/byte loads and stores, stack traffic,
//! calls and returns, register jumps, forward skips and backward loops —
//! run to the same step budget on the interpreted path and the
//! superblock path, at every capture level, with MPU enforcement both
//! off and on. Data displacements reach past both ends of the RW window
//! and the memory base walks, so with enforcement on some accesses are
//! denied, including by an op whose earlier accesses were granted; wild
//! return and register-jump targets fault on fetch. Every fault vectors
//! back to the soup's start through an IDT, so a run crosses the fault
//! exits many times. The two paths must agree on registers,
//! cycle/instret counters, a memory digest, the recorded event count
//! (and, at Events and Full, every recorded event), the per-domain cycle
//! attribution, the context-switch count, the recorder's clock mirror
//! and the EA-MPU check, denial and per-slot grant counters: the block
//! engine has to be observably pure even on adversarial code shapes,
//! including passes whose attribution it settles once per pass.

use proptest::prelude::*;
use trustlite_cpu::{Engine, Machine, SystemBus};
use trustlite_isa::instr::{AluOp, Cond};
use trustlite_isa::{encode, Instr, Reg};
use trustlite_mem::{Bus, Ram};
use trustlite_mpu::{EaMpu, Perms, RuleSlot, Subject};
use trustlite_obs::{Event, ObsLevel};

const CODE: u32 = 0x1000_0000;
const DATA: u32 = 0x1001_0000;
/// Interrupt descriptor table: every vector enters the soup's start.
const IDT: u32 = DATA + 0xc00;
/// The OS stack-pointer cell the exception engine reloads `sp` from.
const OS_SP_CELL: u32 = DATA + 0xff0;
const STACK_TOP: u32 = DATA + 0x800;
const STEPS: u64 = 400;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// An instruction encoded as generated. Memory operands go through
    /// R6, which starts at the data window and moves only by
    /// `StepBase`; register jumps through R7 land on the soup's start.
    Plain(Instr),
    /// Forward skip over `n` following instructions.
    SkipIf(Cond, Reg, Reg, u8),
    /// Backward branch `n` instructions — a loop seed, bounded by the
    /// step budget.
    LoopIf(Cond, Reg, Reg, u8),
    /// Unconditional jump over `n` following instructions.
    Jmp(u8),
    /// Call over `n` following instructions (a later `ret` may or may
    /// not find its return address).
    Call(u8),
    /// Moves the memory base R6 by `4 * k` bytes, so one load or store
    /// in a loop walks across the edges of its memoised grant window.
    StepBase(i16),
}

/// Destination registers exclude R6 and R7 so the memory base and the
/// jump target stay under the soup's control.
fn dst() -> impl Strategy<Value = Reg> {
    (0u32..6).prop_map(|c| Reg::from_code(c).expect("gpr"))
}

fn src() -> impl Strategy<Value = Reg> {
    (0u32..8).prop_map(|c| Reg::from_code(c).expect("gpr"))
}

fn cond() -> impl Strategy<Value = Cond> {
    (0usize..Cond::ALL.len()).prop_map(|c| Cond::ALL[c])
}

/// Word displacements off R6: mostly aligned inside the RW window,
/// some above or below it (MPU-denied with enforcement on), a few
/// misaligned (bus faults).
fn word_disp() -> impl Strategy<Value = i16> {
    prop_oneof![
        (0i16..0x100).prop_map(|w| w * 4),
        (0i16..0x100).prop_map(|w| w * 4),
        (0x400i16..0x440).prop_map(|w| w * 4),
        (-0x40i16..0).prop_map(|w| w * 4),
        0i16..0x400,
    ]
}

/// Byte/halfword displacements off R6: any alignment, inside and
/// outside the RW window.
fn narrow_disp() -> impl Strategy<Value = i16> {
    prop_oneof![0i16..0x400, 0i16..0x400, 0x1000i16..0x1100, -0x100i16..0]
}

fn any_op() -> impl Strategy<Value = Op> {
    use Instr as I;
    prop_oneof![
        ((0usize..AluOp::ALL.len()), dst(), src(), src()).prop_map(|(a, rd, rs1, rs2)| {
            Op::Plain(I::Alu {
                op: AluOp::ALL[a],
                rd,
                rs1,
                rs2,
            })
        }),
        (dst(), src()).prop_map(|(rd, rs1)| Op::Plain(I::Mov { rd, rs1 })),
        (dst(), src()).prop_map(|(rd, rs1)| Op::Plain(I::Not { rd, rs1 })),
        (dst(), src(), any::<i16>()).prop_map(|(rd, rs1, imm)| Op::Plain(I::Addi { rd, rs1, imm })),
        (dst(), src(), any::<u16>()).prop_map(|(rd, rs1, imm)| Op::Plain(I::Andi { rd, rs1, imm })),
        (dst(), src(), any::<u16>()).prop_map(|(rd, rs1, imm)| Op::Plain(I::Ori { rd, rs1, imm })),
        (dst(), src(), any::<u16>()).prop_map(|(rd, rs1, imm)| Op::Plain(I::Xori { rd, rs1, imm })),
        (dst(), src(), 0u8..32).prop_map(|(rd, rs1, imm)| Op::Plain(I::Shli { rd, rs1, imm })),
        (dst(), src(), 0u8..32).prop_map(|(rd, rs1, imm)| Op::Plain(I::Shri { rd, rs1, imm })),
        (dst(), src(), 0u8..32).prop_map(|(rd, rs1, imm)| Op::Plain(I::Srai { rd, rs1, imm })),
        (dst(), any::<i16>()).prop_map(|(rd, imm)| Op::Plain(I::Movi { rd, imm })),
        (dst(), any::<u16>()).prop_map(|(rd, imm)| Op::Plain(I::Lui { rd, imm })),
        (dst(), word_disp()).prop_map(|(rd, disp)| Op::Plain(I::Lw {
            rd,
            rs1: Reg::R6,
            disp
        })),
        (src(), word_disp()).prop_map(|(rs2, disp)| Op::Plain(I::Sw {
            rs1: Reg::R6,
            rs2,
            disp
        })),
        (dst(), narrow_disp()).prop_map(|(rd, disp)| Op::Plain(I::Lb {
            rd,
            rs1: Reg::R6,
            disp
        })),
        (dst(), narrow_disp()).prop_map(|(rd, disp)| Op::Plain(I::Lbs {
            rd,
            rs1: Reg::R6,
            disp
        })),
        (dst(), narrow_disp()).prop_map(|(rd, disp)| Op::Plain(I::Lh {
            rd,
            rs1: Reg::R6,
            disp
        })),
        (dst(), narrow_disp()).prop_map(|(rd, disp)| Op::Plain(I::Lhs {
            rd,
            rs1: Reg::R6,
            disp
        })),
        (src(), narrow_disp()).prop_map(|(rs2, disp)| Op::Plain(I::Sb {
            rs1: Reg::R6,
            rs2,
            disp
        })),
        (src(), narrow_disp()).prop_map(|(rs2, disp)| Op::Plain(I::Sh {
            rs1: Reg::R6,
            rs2,
            disp
        })),
        src().prop_map(|rs| Op::Plain(I::Push { rs })),
        dst().prop_map(|rd| Op::Plain(I::Pop { rd })),
        Just(Op::Plain(I::Pushf)),
        Just(Op::Plain(I::Ret)),
        src().prop_map(|rs1| Op::Plain(I::Jr { rs1 })),
        src().prop_map(|rs1| Op::Plain(I::Callr { rs1 })),
        (1u8..4).prop_map(Op::Jmp),
        (1u8..4).prop_map(Op::Call),
        (-16i16..16).prop_map(Op::StepBase),
        (cond(), src(), src(), 1u8..4).prop_map(|(c, a, b, n)| Op::SkipIf(c, a, b, n)),
        (cond(), src(), src(), 1u8..12).prop_map(|(c, a, b, n)| Op::LoopIf(c, a, b, n)),
    ]
}

/// Encodes the soup; branch offsets are clamped to stay inside it.
fn encode_soup(ops: &[Op]) -> Vec<u8> {
    let mut words = Vec::new();
    for (i, &op) in ops.iter().enumerate() {
        let ahead = |n: u8| 4 * (n as usize).min(ops.len() - i) as i16;
        let instr = match op {
            Op::Plain(instr) => instr,
            Op::SkipIf(cond, rs1, rs2, n) => Instr::Branch {
                cond,
                rs1,
                rs2,
                off: ahead(n),
            },
            Op::LoopIf(cond, rs1, rs2, n) => Instr::Branch {
                cond,
                rs1,
                rs2,
                off: -4 * (n as usize).min(i + 1) as i16,
            },
            Op::Jmp(n) => Instr::Jmp { off: ahead(n) },
            Op::Call(n) => Instr::Call { off: ahead(n) },
            Op::StepBase(k) => Instr::Addi {
                rd: Reg::R6,
                rs1: Reg::R6,
                imm: 4 * k,
            },
        };
        words.extend_from_slice(&encode(instr).to_le_bytes());
    }
    // Pad the skip landing zone, then stop.
    for _ in 0..4 {
        words.extend_from_slice(&encode(Instr::Nop).to_le_bytes());
    }
    words.extend_from_slice(&encode(Instr::Halt).to_le_bytes());
    words
}

struct Observed {
    gprs: [u32; 8],
    sp: u32,
    ip: u32,
    cycles: u64,
    instret: u64,
    mem: Vec<u8>,
    events: u64,
    ring: Vec<Event>,
    attribution: Vec<(String, u64)>,
    switches: u64,
    now: u64,
    /// EA-MPU hardware counters: checks, denials, per-slot grants.
    mpu: (u64, u64, Vec<u64>),
}

fn run_soup(
    image: &[u8],
    init: [u32; 8],
    level: ObsLevel,
    enforce: bool,
    engine: Engine,
) -> Observed {
    let mut bus = Bus::new();
    bus.map(CODE, Box::new(Ram::new("sram", 0x2_0000))).unwrap();
    assert!(bus.host_load(CODE, image));
    let idt: Vec<u8> = (0..32).flat_map(|_| CODE.to_le_bytes()).collect();
    assert!(bus.host_load(IDT, &idt));
    assert!(bus.host_load(OS_SP_CELL, &STACK_TOP.to_le_bytes()));
    let mut mpu = EaMpu::new(8);
    // Code may execute and read itself; its data window is RW.
    mpu.set_rule(
        0,
        RuleSlot {
            start: CODE,
            end: CODE + 0x1000,
            perms: Perms::RX,
            subject: Subject::Region(0),
            enabled: true,
            locked: false,
        },
    )
    .unwrap();
    mpu.set_rule(
        1,
        RuleSlot {
            start: DATA,
            end: DATA + 0x1000,
            perms: Perms::RW,
            subject: Subject::Region(0),
            enabled: true,
            locked: false,
        },
    )
    .unwrap();
    let mut sys = SystemBus::new(bus, mpu, None);
    sys.enforce = enforce;
    sys.obs.set_level(level);
    // Two code domains so soups that branch across the split exercise
    // attribution's context-switch edges on both paths.
    sys.obs.attr.register("head", &[(CODE, CODE + 0x20)]);
    sys.obs
        .attr
        .register("tail", &[(CODE + 0x20, CODE + 0x1000)]);
    sys.set_engine(engine);
    let mut m = Machine::new(sys, CODE);
    m.hw.idt_base = IDT;
    m.hw.os_sp_cell = OS_SP_CELL;
    m.regs.gprs = init;
    m.regs.set(Reg::R6, DATA); // memory base
    m.regs.set(Reg::R7, CODE); // register-jump target
    m.regs.set(Reg::Sp, STACK_TOP);
    let _ = m.run(STEPS);
    let mem = m.sys.bus.read_bytes(CODE, 0x2_0000).expect("ram readable");
    Observed {
        gprs: m.regs.gprs,
        sp: m.regs.sp,
        ip: m.regs.ip,
        cycles: m.cycles,
        instret: m.instret,
        mem,
        events: m.sys.obs.ring.len() as u64 + m.sys.obs.ring.dropped(),
        ring: m.sys.obs.ring.iter().cloned().collect(),
        attribution: m.sys.obs.attr.report(),
        switches: m.sys.obs.attr.switch_count(),
        now: m.sys.obs.now(),
        mpu: (
            m.sys.mpu.check_count(),
            m.sys.mpu.deny_count(),
            m.sys.mpu.slot_hits().to_vec(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn superblock_path_is_observably_pure(
        init in any::<[u32; 8]>(),
        ops in proptest::collection::vec(any_op(), 1..80),
        enforce in any::<bool>(),
    ) {
        let image = encode_soup(&ops);
        for level in [ObsLevel::Off, ObsLevel::Metrics, ObsLevel::Events, ObsLevel::Full] {
            let slow = run_soup(&image, init, level, enforce, Engine::Reference);
            let block = run_soup(&image, init, level, enforce, Engine::Superblock);
            prop_assert_eq!(block.gprs, slow.gprs, "{:?}/{}: gprs", level, enforce);
            prop_assert_eq!(block.sp, slow.sp, "{:?}/{}: sp", level, enforce);
            prop_assert_eq!(block.ip, slow.ip, "{:?}/{}: ip", level, enforce);
            prop_assert_eq!(
                (block.cycles, block.instret),
                (slow.cycles, slow.instret),
                "{:?}/{}: counters", level, enforce
            );
            prop_assert!(block.mem == slow.mem, "{:?}/{}: memory diverged", level, enforce);
            prop_assert_eq!(block.events, slow.events, "{:?}/{}: event count", level, enforce);
            if level >= ObsLevel::Events {
                prop_assert!(block.ring == slow.ring, "{:?}/{}: event stream", level, enforce);
            }
            prop_assert_eq!(
                block.attribution, slow.attribution,
                "{:?}/{}: cycle attribution", level, enforce
            );
            prop_assert_eq!(
                block.switches, slow.switches,
                "{:?}/{}: context switches", level, enforce
            );
            prop_assert_eq!(block.now, slow.now, "{:?}/{}: clock mirror", level, enforce);
            prop_assert_eq!(block.mpu, slow.mpu, "{:?}/{}: MPU counters", level, enforce);
        }
    }
}
