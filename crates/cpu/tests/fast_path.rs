//! Fast-path cache correctness: the predecode table must never serve a
//! stale decode. Self-modifying code (CPU stores), loader-style
//! `hw_write32` patches and host-side `host_load` updates all have to be
//! re-decoded, and running with the caches off must produce bit-identical
//! architectural state and cycle counts.

use trustlite_cpu::{Engine, HaltReason, Machine, RunExit, SystemBus};
use trustlite_isa::{encode, Asm, Image, Instr, Reg};
use trustlite_mem::{Bus, Ram};
use trustlite_mpu::EaMpu;

const SRAM: u32 = 0x1000_0000;

/// A machine whose code lives in RAM (writable), MPU enforcement off.
fn machine(img: &Image, engine: Engine) -> Machine {
    let mut bus = Bus::new();
    bus.map(SRAM, Box::new(Ram::new("sram", 0x1_0000))).unwrap();
    assert!(bus.host_load(img.base, &img.bytes));
    let mut sys = SystemBus::new(bus, EaMpu::new(8), None);
    sys.enforce = false;
    sys.set_engine(engine);
    Machine::new(sys, img.base)
}

/// Executes an instruction once (warming the predecode cache), patches it
/// with an ordinary store, and executes it again: the patched semantics
/// must win.
fn self_modifying_image() -> Image {
    let patch = encode(Instr::Movi {
        rd: Reg::R2,
        imm: 99,
    });
    let mut a = Asm::new(SRAM);
    a.li(Reg::R0, patch);
    a.la(Reg::R1, "target");
    a.li(Reg::R3, 0);
    a.label("target");
    a.movi(Reg::R2, 1); // exactly one word; overwritten on the second pass
    a.bne(Reg::R3, Reg::R4, "done");
    a.li(Reg::R3, 1);
    a.sw(Reg::R1, 0, Reg::R0); // mem[target] <- "movi r2, 99"
    a.jmp("target");
    a.label("done");
    a.halt();
    a.assemble().unwrap()
}

#[test]
fn self_modifying_code_re_decodes() {
    let img = self_modifying_image();
    let mut m = machine(&img, Engine::Superblock);
    assert!(matches!(
        m.run(100),
        RunExit::Halted(HaltReason::Halt { .. })
    ));
    assert_eq!(
        m.regs.get(Reg::R2),
        99,
        "second pass must execute the patched instruction"
    );
}

#[test]
fn self_modifying_code_cycles_match_uncached() {
    let img = self_modifying_image();
    let mut fast = machine(&img, Engine::Superblock);
    let mut slow = machine(&img, Engine::Reference);
    assert!(matches!(fast.run(100), RunExit::Halted(_)));
    assert!(matches!(slow.run(100), RunExit::Halted(_)));
    assert_eq!(fast.regs.get(Reg::R2), slow.regs.get(Reg::R2));
    assert_eq!(fast.cycles, slow.cycles, "caches must not change timing");
    assert_eq!(fast.instret, slow.instret);
}

#[test]
fn hw_write_patch_re_decodes() {
    // An infinite loop, warmed into the cache, then patched to a halt via
    // the hardware write path the Secure Loader's copy loops use.
    let mut a = Asm::new(SRAM);
    a.label("spin");
    a.jmp("spin");
    let img = a.assemble().unwrap();
    let mut m = machine(&img, Engine::Superblock);
    assert_eq!(m.run(10), RunExit::StepLimit, "spinning");
    m.sys.hw_write32(SRAM, encode(Instr::Halt)).unwrap();
    assert!(
        matches!(m.run(10), RunExit::Halted(HaltReason::Halt { .. })),
        "patched word must be re-decoded"
    );
}

#[test]
fn host_load_patch_re_decodes() {
    let mut a = Asm::new(SRAM);
    a.label("spin");
    a.jmp("spin");
    let img = a.assemble().unwrap();
    let mut m = machine(&img, Engine::Superblock);
    assert_eq!(m.run(10), RunExit::StepLimit, "spinning");
    // Host-side reprogramming (field update): caught by the bus host
    // generation counter, which flash-clears the predecode table.
    assert!(m
        .sys
        .bus
        .host_load(SRAM, &encode(Instr::Halt).to_le_bytes()));
    assert!(matches!(
        m.run(10),
        RunExit::Halted(HaltReason::Halt { .. })
    ));
}

// ---------------------------------------------------------------------
// Superblock invalidation: a store into a cached block must flush it
// precisely (that block and nothing else) and the next dispatch must
// re-execute the patched code.
// ---------------------------------------------------------------------

/// A resident self-loop: four register ops and a backward jump, cached
/// as one superblock at `SRAM`.
fn loop_block_image() -> Image {
    let mut a = Asm::new(SRAM);
    a.label("top");
    a.movi(Reg::R2, 1);
    a.movi(Reg::R3, 2);
    a.movi(Reg::R4, 3);
    a.movi(Reg::R5, 4);
    a.jmp("top");
    a.assemble().unwrap()
}

/// Warms the block cache on the loop image and returns the machine with
/// exactly one built block.
fn warmed_loop_machine() -> Machine {
    let img = loop_block_image();
    let mut m = machine(&img, Engine::Superblock);
    assert_eq!(m.run(50), RunExit::StepLimit);
    let s = m.sys.block_stats();
    assert!(s.misses >= 1, "loop must have built a block");
    assert_eq!(s.flushes, 0, "nothing should be flushed yet");
    m
}

/// Patches the micro-op at word offset `word` of the warmed loop block
/// and asserts a precise flush plus re-execution of the new semantics.
fn patch_and_check(word: u32, patch: Instr, check: impl Fn(&mut Machine)) {
    let mut m = warmed_loop_machine();
    let flushes0 = m.sys.block_stats().flushes;
    m.sys.hw_write32(SRAM + 4 * word, encode(patch)).unwrap();
    assert_eq!(
        m.sys.block_stats().flushes,
        flushes0 + 1,
        "a store into a cached block must flush exactly that block"
    );
    assert_eq!(m.run(50), RunExit::StepLimit);
    check(&mut m);
    assert!(
        m.sys.block_stats().misses >= 2,
        "the patched block must have been rebuilt"
    );
}

#[test]
fn patching_first_micro_op_flushes_and_re_executes() {
    patch_and_check(
        0,
        Instr::Movi {
            rd: Reg::R2,
            imm: 99,
        },
        |m| assert_eq!(m.regs.get(Reg::R2), 99),
    );
}

#[test]
fn patching_middle_micro_op_flushes_and_re_executes() {
    patch_and_check(
        2,
        Instr::Movi {
            rd: Reg::R4,
            imm: 77,
        },
        |m| assert_eq!(m.regs.get(Reg::R4), 77),
    );
}

#[test]
fn patching_last_micro_op_flushes_and_re_executes() {
    // The final micro-op is the control transfer; patch it into a halt
    // so the loop must fall out on the very next pass.
    let mut m = warmed_loop_machine();
    let flushes0 = m.sys.block_stats().flushes;
    m.sys.hw_write32(SRAM + 4 * 4, encode(Instr::Halt)).unwrap();
    assert_eq!(m.sys.block_stats().flushes, flushes0 + 1);
    assert!(
        matches!(m.run(50), RunExit::Halted(HaltReason::Halt { .. })),
        "patched terminator must be re-decoded and re-built"
    );
}

#[test]
fn patch_flushes_only_the_covering_block() {
    // Two ping-ponging blocks; a patch into the second must flush it
    // alone — the first block keeps serving from the cache (exactly one
    // rebuild miss afterwards).
    let mut a = Asm::new(SRAM);
    a.label("a");
    a.movi(Reg::R2, 1);
    a.movi(Reg::R3, 2);
    a.jmp("b");
    a.label("b");
    a.movi(Reg::R4, 3);
    a.movi(Reg::R5, 4);
    a.jmp("a");
    let img = a.assemble().unwrap();
    let mut m = machine(&img, Engine::Superblock);
    assert_eq!(m.run(60), RunExit::StepLimit);
    let s0 = m.sys.block_stats();
    assert!(s0.misses >= 2, "both blocks must be cached");
    assert_eq!(s0.flushes, 0);
    // Patch the first micro-op of block `b` (word 3 of the image).
    m.sys
        .hw_write32(
            SRAM + 4 * 3,
            encode(Instr::Movi {
                rd: Reg::R4,
                imm: 55,
            }),
        )
        .unwrap();
    let s1 = m.sys.block_stats();
    assert_eq!(
        s1.flushes,
        s0.flushes + 1,
        "only the covering block is flushed"
    );
    assert_eq!(m.run(60), RunExit::StepLimit);
    assert_eq!(m.regs.get(Reg::R4), 55, "patched op must re-execute");
    let s2 = m.sys.block_stats();
    assert_eq!(
        s2.misses,
        s0.misses + 1,
        "block `a` must still be served from the cache"
    );
}

#[test]
fn store_across_block_boundary_flushes_both_neighbours() {
    // Adjacent blocks: `a` falls into a patchable tail word that sits in
    // block `b`. A 32-bit store exactly on the boundary word must flush
    // `b` (whose first op it is) without touching `a`'s cached ops —
    // then patching `a`'s last word must flush `a` too.
    let mut a = Asm::new(SRAM);
    a.label("a");
    a.movi(Reg::R2, 1);
    a.jmp("b");
    a.label("b");
    a.movi(Reg::R3, 2);
    a.jmp("a");
    let img = a.assemble().unwrap();
    let mut m = machine(&img, Engine::Superblock);
    assert_eq!(m.run(40), RunExit::StepLimit);
    let s0 = m.sys.block_stats();
    assert!(s0.misses >= 2);
    // Boundary word = first word of `b` (word 2).
    m.sys
        .hw_write32(
            SRAM + 4 * 2,
            encode(Instr::Movi {
                rd: Reg::R3,
                imm: 66,
            }),
        )
        .unwrap();
    assert_eq!(m.sys.block_stats().flushes, s0.flushes + 1);
    // Last word of `a` (word 1, its jump; the rewritten word still
    // targets `b`) — a separate covering block must flush.
    m.sys
        .hw_write32(SRAM + 4, encode(Instr::Jmp { off: 0 }))
        .unwrap();
    assert_eq!(m.sys.block_stats().flushes, s0.flushes + 2);
    assert_eq!(m.run(40), RunExit::StepLimit);
    assert_eq!(m.regs.get(Reg::R3), 66);
}

// ---------------------------------------------------------------------
// COW-backed forks: sparse RAM shares pages between a machine and its
// snapshot, so the invalidation contract must hold across the fork —
// child patches unshare pages privately (invisible to the parent) and
// both sides re-decode correctly.
// ---------------------------------------------------------------------

#[test]
fn smc_after_fork_is_private_and_re_decoded() {
    let mut a = Asm::new(SRAM);
    a.label("spin");
    a.jmp("spin");
    let img = a.assemble().unwrap();
    let mut parent = Machine::new(
        {
            let mut bus = Bus::new();
            bus.map(SRAM, Box::new(Ram::new("sram", 0x1_0000))).unwrap();
            assert!(bus.host_load(img.base, &img.bytes));
            let mut sys = SystemBus::new(bus, EaMpu::new(8), None);
            sys.enforce = false;
            sys.set_engine(Engine::Superblock);
            sys
        },
        img.base,
    );
    // Warm the parent's caches on the shared page.
    assert_eq!(parent.run(10), RunExit::StepLimit, "spinning");

    let mut child = parent.snapshot().expect("machine snapshots");
    // Patch the child's code two ways: a host_load (host_gen flash-clear
    // path) writing into a COW page shared with the parent...
    assert!(child
        .sys
        .bus
        .host_load(SRAM, &encode(Instr::Halt).to_le_bytes()));
    assert!(
        matches!(child.run(10), RunExit::Halted(HaltReason::Halt { .. })),
        "child re-decodes its private patched page"
    );
    // ...while the parent still spins on the original shared word.
    assert_eq!(parent.run(10), RunExit::StepLimit, "parent unaffected");

    // And the reverse: a parent-side CPU store (store-granular probe
    // invalidation) must not leak into a fresh child taken before it.
    let mut child2 = parent.snapshot().expect("machine snapshots");
    parent.sys.hw_write32(SRAM, encode(Instr::Halt)).unwrap();
    assert!(matches!(
        parent.run(10),
        RunExit::Halted(HaltReason::Halt { .. })
    ));
    assert_eq!(child2.run(10), RunExit::StepLimit, "fork isolated");
}

// ---------------------------------------------------------------------
// Arc-shared code caches across forks: `snapshot()` Arc-bumps the
// chunked predecode/superblock tables, so a patch on either side must
// clone only the touched chunk. Flush counters stay per-device and the
// other side keeps dispatching its original cached block.
// ---------------------------------------------------------------------

#[test]
fn shared_block_parent_patch_keeps_child_on_original_bytes() {
    let mut parent = warmed_loop_machine();
    let mut child = parent.snapshot().expect("machine snapshots");
    let child0 = child.sys.block_stats();
    // Parent patches its cached loop body: its covering block flushes,
    // rebuilds, and the new semantics win on the parent only.
    let f0 = parent.sys.block_stats().flushes;
    parent
        .sys
        .hw_write32(
            SRAM,
            encode(Instr::Movi {
                rd: Reg::R2,
                imm: 99,
            }),
        )
        .unwrap();
    assert_eq!(parent.sys.block_stats().flushes, f0 + 1);
    assert_eq!(parent.run(50), RunExit::StepLimit);
    assert_eq!(parent.regs.get(Reg::R2), 99);
    // The child's table still holds the original block: no flush leaked
    // across the Arc, and the original semantics keep executing.
    assert_eq!(
        child.sys.block_stats(),
        child0,
        "parent-side flush must stay per-device"
    );
    assert_eq!(child.run(50), RunExit::StepLimit);
    assert_eq!(child.regs.get(Reg::R2), 1, "child executes original bytes");
}

#[test]
fn shared_block_child_patch_keeps_parent_on_original_bytes() {
    let mut parent = warmed_loop_machine();
    let mut child = parent.snapshot().expect("machine snapshots");
    let parent0 = parent.sys.block_stats();
    // Child patches the second loop word; its chunk is cloned on write.
    child
        .sys
        .hw_write32(
            SRAM + 4,
            encode(Instr::Movi {
                rd: Reg::R3,
                imm: 88,
            }),
        )
        .unwrap();
    assert_eq!(child.run(50), RunExit::StepLimit);
    assert_eq!(child.regs.get(Reg::R3), 88);
    assert_eq!(
        parent.sys.block_stats(),
        parent0,
        "child-side flush must stay per-device"
    );
    assert_eq!(parent.run(50), RunExit::StepLimit);
    assert_eq!(
        parent.regs.get(Reg::R3),
        2,
        "parent executes original bytes"
    );
}

#[test]
fn fork_shares_code_cache_footprint() {
    let parent = warmed_loop_machine();
    let before = parent.sys.code_cache_bytes();
    assert!(before > 0, "warm tables must be resident");
    let mut child = parent.snapshot().expect("machine snapshots");
    // Resident accounting amortizes each chunk over its sharers, so the
    // fork adds (almost) nothing to the combined physical footprint.
    let shared = parent.sys.code_cache_bytes() + child.sys.code_cache_bytes();
    assert!(
        shared <= before,
        "fork must not duplicate resident chunks: {shared} > {before}"
    );
    // A child-side patch unshares exactly the touched chunks: the sum
    // grows, but stays well under a full deep copy.
    child
        .sys
        .hw_write32(
            SRAM,
            encode(Instr::Movi {
                rd: Reg::R2,
                imm: 7,
            }),
        )
        .unwrap();
    assert_eq!(child.run(50), RunExit::StepLimit);
    let after = parent.sys.code_cache_bytes() + child.sys.code_cache_bytes();
    assert!(after > shared, "clone-on-write must materialize the chunk");
}

#[test]
fn private_mode_fork_behaves_identically_to_shared() {
    // The private reference mode deep-copies on snapshot but
    // must be architecturally indistinguishable: same registers, same
    // timing, same cache counters after an identical SMC sequence.
    let mut parent = warmed_loop_machine();
    let mut shared_child = parent.snapshot().expect("machine snapshots");
    parent.sys.set_private_code_caches(true);
    let mut private_child = parent.snapshot().expect("machine snapshots");
    for c in [&mut shared_child, &mut private_child] {
        c.sys
            .hw_write32(
                SRAM,
                encode(Instr::Movi {
                    rd: Reg::R2,
                    imm: 42,
                }),
            )
            .unwrap();
        assert_eq!(c.run(50), RunExit::StepLimit);
        assert_eq!(c.regs.get(Reg::R2), 42);
    }
    assert_eq!(shared_child.regs.gprs, private_child.regs.gprs);
    assert_eq!(
        (shared_child.cycles, shared_child.instret),
        (private_child.cycles, private_child.instret)
    );
    assert_eq!(
        shared_child.sys.block_stats(),
        private_child.sys.block_stats()
    );
    assert_eq!(
        shared_child.sys.predecode_stats(),
        private_child.sys.predecode_stats()
    );
}
