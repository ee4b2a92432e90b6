//! Differential property test for the `Arc`-shared code caches: random
//! instruction soups run through a fork-then-patch scenario — warm the
//! caches, snapshot, patch parent and child *differently*, run both out
//! — once on the default shared (clone-on-write chunk) tables and once
//! on the private (deep-copied) reference tables, at every capture
//! level. The two modes must agree on registers, cycle/instret
//! counters, a memory digest, event counts, cycle attribution *and* the
//! cache hit/miss/flush counters on both sides of the fork: sharing is
//! a host-side artifact that must never be architecturally visible.

use proptest::prelude::*;
use trustlite_cpu::{Engine, Machine, SystemBus};
use trustlite_isa::instr::{AluOp, Cond};
use trustlite_isa::{encode, Instr, Reg};
use trustlite_mem::{Bus, Ram};
use trustlite_mpu::{EaMpu, Perms, RuleSlot, Subject};
use trustlite_obs::ObsLevel;

const CODE: u32 = 0x1000_0000;
const DATA: u32 = 0x1001_0000;
const STEPS: u64 = 300;

#[derive(Debug, Clone, Copy)]
enum Op {
    Alu(AluOp, Reg, Reg, Reg),
    Addi(Reg, Reg, i16),
    Movi(Reg, i16),
    Lw(Reg, u16),
    Sw(Reg, u16),
    Push(Reg),
    Pop(Reg),
    SkipIf(Cond, Reg, Reg, u8),
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

#[derive(Debug, PartialEq)]
struct Observed {
    gprs: [u32; 8],
    sp: u32,
    ip: u32,
    cycles: u64,
    instret: u64,
    mem: Vec<u8>,
    events: u64,
    attribution: Vec<(String, u64)>,
    predecode: trustlite_cpu::PredecodeStats,
    blocks: trustlite_cpu::BlockStats,
}

fn observe(m: &mut Machine) -> Observed {
    let mem = m.sys.bus.read_bytes(CODE, 0x2_0000).expect("ram readable");
    Observed {
        gprs: m.regs.gprs,
        sp: m.regs.sp,
        ip: m.regs.ip,
        cycles: m.cycles,
        instret: m.instret,
        mem,
        events: m.sys.obs.ring.len() as u64 + m.sys.obs.ring.dropped(),
        attribution: m.sys.obs.attr.report(),
        predecode: m.sys.predecode_stats(),
        blocks: m.sys.block_stats(),
    }
}

/// Warm → fork → patch parent and child differently → run both out.
/// Returns the parent's and the child's observations.
fn run_fork_scenario(
    image: &[u8],
    init: [u32; 8],
    level: ObsLevel,
    private: bool,
    patch_sel: usize,
    n_ops: usize,
) -> (Observed, Observed) {
    let mut bus = Bus::new();
    bus.map(CODE, Box::new(Ram::new("sram", 0x2_0000))).unwrap();
    assert!(bus.host_load(CODE, image));
    let mut mpu = EaMpu::new(8);
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
    sys.enforce = false;
    sys.obs.set_level(level);
    sys.obs.attr.register("head", &[(CODE, CODE + 0x20)]);
    sys.obs
        .attr
        .register("tail", &[(CODE + 0x20, CODE + 0x1000)]);
    sys.set_engine(Engine::Superblock);
    sys.set_private_code_caches(private);
    let mut parent = Machine::new(sys, CODE);
    parent.regs.gprs = init;
    parent.regs.set(Reg::R6, DATA);
    parent.regs.set(Reg::Sp, DATA + 0x800);

    // Warm the caches, then fork.
    let _ = parent.run(STEPS / 2);
    let mut child = parent.snapshot().expect("machine snapshots");

    // Divergent SMC: parent and child each patch a *different* word of
    // the shared warm image, exercising clone-on-first-write on whoever
    // holds a shared chunk (private mode already deep-copied).
    let w1 = (patch_sel % n_ops) as u32;
    let w2 = ((patch_sel + 1) % n_ops) as u32;
    parent
        .sys
        .hw_write32(
            CODE + 4 * w1,
            encode(Instr::Movi {
                rd: Reg::R2,
                imm: 0x11,
            }),
        )
        .unwrap();
    child
        .sys
        .hw_write32(
            CODE + 4 * w2,
            encode(Instr::Movi {
                rd: Reg::R3,
                imm: 0x22,
            }),
        )
        .unwrap();
    let _ = parent.run(STEPS / 2);
    let _ = child.run(STEPS / 2);
    (observe(&mut parent), observe(&mut child))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn shared_and_private_code_caches_are_indistinguishable(
        init in any::<[u32; 8]>(),
        ops in proptest::collection::vec(any_op(), 1..60),
        patch_sel in 0usize..1000,
    ) {
        let image = encode_soup(&ops);
        for level in [ObsLevel::Off, ObsLevel::Metrics, ObsLevel::Events, ObsLevel::Full] {
            let (sp, sc) = run_fork_scenario(&image, init, level, false, patch_sel, ops.len());
            let (pp, pc) = run_fork_scenario(&image, init, level, true, patch_sel, ops.len());
            prop_assert_eq!(&sp, &pp, "{:?}: parent diverged shared-vs-private", level);
            prop_assert_eq!(&sc, &pc, "{:?}: child diverged shared-vs-private", level);
        }
    }
}
