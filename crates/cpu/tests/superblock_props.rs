//! Differential property test for the superblock trace engine: random
//! instruction soups — ALU ops, loads, stores, stack traffic, forward
//! skips and backward loops — run to the same step budget on the
//! interpreted path and the superblock path, at every capture level,
//! with MPU enforcement both off and on. The two paths must agree on
//! registers, cycle/instret counters, a memory digest, the recorded
//! event count (and, at Events and Full, every recorded event), the
//! per-domain cycle attribution, the context-switch count and the
//! recorder's clock mirror: the block engine has to be observably pure
//! even on adversarial code shapes, including passes whose attribution
//! it settles once per pass.

use proptest::prelude::*;
use trustlite_cpu::{Engine, Machine, SystemBus};
use trustlite_isa::instr::{AluOp, Cond};
use trustlite_isa::{encode, Instr, Reg};
use trustlite_mem::{Bus, Ram};
use trustlite_mpu::{EaMpu, Perms, RuleSlot, Subject};
use trustlite_obs::{Event, ObsLevel};

const CODE: u32 = 0x1000_0000;
const DATA: u32 = 0x1001_0000;
const STEPS: u64 = 400;

#[derive(Debug, Clone, Copy)]
enum Op {
    Alu(AluOp, Reg, Reg, Reg),
    Addi(Reg, Reg, i16),
    Movi(Reg, i16),
    Shli(Reg, Reg, u8),
    Xori(Reg, Reg, u16),
    /// Load/store through R6, which is pinned to the data window.
    Lw(Reg, u16),
    Sw(Reg, u16),
    Push(Reg),
    Pop(Reg),
    /// Forward skip over `n` following instructions.
    SkipIf(Cond, Reg, Reg, u8),
    /// Backward branch `n` instructions — a loop seed, bounded by the
    /// step budget.
    LoopIf(Cond, Reg, Reg, u8),
}

/// Destination registers exclude R6 so the memory base stays pinned.
fn dst() -> impl Strategy<Value = Reg> {
    (0u32..6).prop_map(|c| Reg::from_code(c).expect("gpr"))
}

fn src() -> impl Strategy<Value = Reg> {
    (0u32..8).prop_map(|c| Reg::from_code(c).expect("gpr"))
}

fn cond() -> impl Strategy<Value = Cond> {
    (0usize..Cond::ALL.len()).prop_map(|c| Cond::ALL[c])
}

fn any_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        ((0usize..AluOp::ALL.len()), dst(), src(), src()).prop_map(|(a, rd, rs1, rs2)| Op::Alu(
            AluOp::ALL[a],
            rd,
            rs1,
            rs2
        )),
        (dst(), src(), any::<i16>()).prop_map(|(rd, rs1, v)| Op::Addi(rd, rs1, v)),
        (dst(), any::<i16>()).prop_map(|(rd, v)| Op::Movi(rd, v)),
        (dst(), src(), 0u8..32).prop_map(|(rd, rs1, v)| Op::Shli(rd, rs1, v)),
        (dst(), src(), any::<u16>()).prop_map(|(rd, rs1, v)| Op::Xori(rd, rs1, v)),
        (dst(), 0u16..0x100).prop_map(|(rd, w)| Op::Lw(rd, w * 4)),
        (src(), 0u16..0x100).prop_map(|(rs, w)| Op::Sw(rs, w * 4)),
        src().prop_map(Op::Push),
        dst().prop_map(Op::Pop),
        (cond(), src(), src(), 1u8..4).prop_map(|(c, a, b, n)| Op::SkipIf(c, a, b, n)),
        (cond(), src(), src(), 1u8..12).prop_map(|(c, a, b, n)| Op::LoopIf(c, a, b, n)),
    ]
}

/// Encodes the soup; branch offsets are clamped to stay inside it.
fn encode_soup(ops: &[Op]) -> Vec<u8> {
    let mut words = Vec::new();
    for (i, &op) in ops.iter().enumerate() {
        let instr = match op {
            Op::Alu(a, rd, rs1, rs2) => Instr::Alu {
                op: a,
                rd,
                rs1,
                rs2,
            },
            Op::Addi(rd, rs1, imm) => Instr::Addi { rd, rs1, imm },
            Op::Movi(rd, imm) => Instr::Movi { rd, imm },
            Op::Shli(rd, rs1, imm) => Instr::Shli { rd, rs1, imm },
            Op::Xori(rd, rs1, imm) => Instr::Xori { rd, rs1, imm },
            Op::Lw(rd, off) => Instr::Lw {
                rd,
                rs1: Reg::R6,
                disp: off as i16,
            },
            Op::Sw(rs, off) => Instr::Sw {
                rs1: Reg::R6,
                rs2: rs,
                disp: off as i16,
            },
            Op::Push(rs) => Instr::Push { rs },
            Op::Pop(rd) => Instr::Pop { rd },
            Op::SkipIf(c, rs1, rs2, n) => {
                let n = (n as usize).min(ops.len() - i) as i16;
                Instr::Branch {
                    cond: c,
                    rs1,
                    rs2,
                    off: 4 * n,
                }
            }
            Op::LoopIf(c, rs1, rs2, n) => {
                let n = (n as usize).min(i + 1) as i16;
                Instr::Branch {
                    cond: c,
                    rs1,
                    rs2,
                    off: -4 * n,
                }
            }
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
    m.regs.gprs = init;
    m.regs.set(Reg::R6, DATA); // memory base
    m.regs.set(Reg::Sp, DATA + 0x800);
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
        }
    }
}
