//! Long-running macro workloads for the `sim_throughput` harness.
//!
//! Each builder returns a booted [`Platform`] whose guest program loops
//! indefinitely (no halt within any realistic step budget), so the
//! harness can run it for exactly N steps and convert wall-clock time
//! into simulated MIPS. The three workloads stress the three fast-path
//! caches differently:
//!
//! * `quickstart` — a tight OS load/add/store loop: pure fetch/decode and
//!   EA-MPU check pressure, no interrupts (the batched-tick deadline is
//!   unbounded, so device polling vanishes entirely);
//! * `preemptive_os` — three busy trustlets preempted by a 400-cycle
//!   timer quantum through the secure exception engine: exercises the
//!   batched-tick deadline math and context-switch-heavy subject churn;
//! * `trusted_ipc` — an OS looping RPC-style `call()` jumps into a
//!   trustlet message-queue handler: cross-region control transfer, so
//!   the grant cache's subject window is re-derived constantly.
//!
//! The same builders back the determinism regression in
//! `tests/determinism.rs`: a fast-path run must be bit-identical (cycles,
//! instret, memory digest) to a cache-disabled run.

use trustlite::platform::{Platform, PlatformBuilder};
use trustlite::spec::{PeriphGrant, TrustletOptions};
use trustlite::ObsLevel;
use trustlite_isa::Reg;
use trustlite_mem::map;
use trustlite_mpu::Perms;
use trustlite_os::scheduler::{build_scheduler_os, ScheduledTask, SchedulerConfig, SCHED_IDT};
use trustlite_os::trustlet_lib;

/// The workload names understood by [`build_workload`].
pub const WORKLOADS: [&str; 4] = ["quickstart", "checksum", "preemptive_os", "trusted_ipc"];

/// Builds the named throughput workload at the given capture level.
///
/// Panics on an unknown name (the set is [`WORKLOADS`]); callers taking
/// the name from user input check it first, as `Fleet::boot` does.
pub fn build_workload(name: &str, level: ObsLevel) -> Platform {
    match name {
        "quickstart" => quickstart(level),
        "checksum" => checksum(level),
        "preemptive_os" => preemptive_os(level),
        "trusted_ipc" => trusted_ipc(level),
        other => panic!("unknown throughput workload {other:?}"),
    }
}

/// One registered trustlet (so the loader programs a realistic rule set)
/// and an OS that increments a word in its own data region forever.
fn quickstart(level: ObsLevel) -> Platform {
    let mut b = PlatformBuilder::new();
    b.telemetry(level);
    let plan = b.plan_trustlet("vault", 0x100, 0x80, 0x80);
    let mut t = plan.begin_program();
    t.asm.label("main");
    t.asm.halt();
    b.add_trustlet(&plan, t.finish().unwrap(), TrustletOptions::default())
        .unwrap();
    let mut os = b.begin_os();
    let stack_top = os.stack_top;
    {
        let a = &mut os.asm;
        a.label("main");
        a.li(Reg::Sp, stack_top);
        // Counter word well below the (empty) stack, inside the OS
        // data/stack region.
        a.li(Reg::R1, stack_top - 0x100);
        a.label("loop");
        a.lw(Reg::R2, Reg::R1, 0);
        a.addi(Reg::R2, Reg::R2, 1);
        a.sw(Reg::R1, 0, Reg::R2);
        a.jmp("loop");
    }
    let os_img = os.finish().unwrap();
    b.set_os(os_img, &[]);
    b.build().expect("quickstart workload builds")
}

/// A packet-checksum kernel: a Fletcher-style sum with an unrolled
/// mixing round over a 64-word buffer, restarted forever. The loop body
/// is 27 straight-line instructions (one load, twenty-four ALU ops, the
/// pointer bump and the backward branch) — the ALU-dominated profile of
/// real embedded MAC/checksum inner loops, and the shape the superblock
/// cache is built for: one resident block retires 26 register-only ops
/// per memory access.
fn checksum(level: ObsLevel) -> Platform {
    let mut b = PlatformBuilder::new();
    b.telemetry(level);
    let plan = b.plan_trustlet("vault", 0x100, 0x80, 0x80);
    let mut t = plan.begin_program();
    t.asm.label("main");
    t.asm.halt();
    b.add_trustlet(&plan, t.finish().unwrap(), TrustletOptions::default())
        .unwrap();
    let mut os = b.begin_os();
    let stack_top = os.stack_top;
    {
        let a = &mut os.asm;
        let buf = stack_top - 0x300;
        let buf_end = buf + 0x100; // 64 words
        a.label("main");
        a.li(Reg::Sp, stack_top);
        a.li(Reg::R1, buf); // cursor
        a.li(Reg::R6, buf_end); // limit
        a.li(Reg::R2, 0); // sum1
        a.li(Reg::R3, 0); // sum2
        a.label("loop");
        a.lw(Reg::R4, Reg::R1, 0);
        a.add(Reg::R2, Reg::R2, Reg::R4);
        a.add(Reg::R3, Reg::R3, Reg::R2);
        for (dst, sh, left) in [
            (Reg::R2, 5, true),
            (Reg::R2, 7, false),
            (Reg::R3, 3, true),
            (Reg::R3, 11, false),
            (Reg::R2, 9, true),
            (Reg::R3, 6, false),
            (Reg::R3, 2, true),
            (Reg::R2, 13, false),
        ] {
            if left {
                a.shli(Reg::R5, dst, sh);
            } else {
                a.shri(Reg::R5, dst, sh);
            }
            a.xor(dst, dst, Reg::R5);
        }
        a.add(Reg::R2, Reg::R2, Reg::R3);
        a.xor(Reg::R3, Reg::R3, Reg::R2);
        a.add(Reg::R3, Reg::R3, Reg::R2);
        a.xor(Reg::R2, Reg::R2, Reg::R3);
        a.add(Reg::R2, Reg::R2, Reg::R3);
        a.add(Reg::R3, Reg::R3, Reg::R2);
        a.addi(Reg::R1, Reg::R1, 4);
        a.bltu(Reg::R1, Reg::R6, "loop");
        // Buffer exhausted: fold the running sums into the buffer head
        // (so the kernel has an architecturally visible result) and
        // restart.
        a.li(Reg::R1, buf);
        a.xor(Reg::R4, Reg::R2, Reg::R3);
        a.sw(Reg::R1, 0, Reg::R4);
        a.jmp("loop");
    }
    let os_img = os.finish().unwrap();
    b.set_os(os_img, &[]);
    b.build().expect("checksum workload builds")
}

/// `examples/preemptive_os.rs` with effectively-unbounded counters: three
/// busy trustlets round-robined by the scheduler OS on a 400-cycle timer
/// quantum. The iteration targets are far beyond any harness step budget,
/// so preemption never stops.
fn preemptive_os(level: ObsLevel) -> Platform {
    // Large but positive under the signed `bge` loop bound.
    const ITERS: u32 = 0x3fff_ffff;
    let mut b = PlatformBuilder::new();
    b.telemetry(level);
    let mut plans = Vec::new();
    for name in ["sensor", "filter", "logger"] {
        let plan = b.plan_trustlet(name, 0x200, 0x80, 0x100);
        let mut t = plan.begin_program();
        trustlet_lib::emit_preemptible_counter(&mut t.asm, plan.data_base, ITERS);
        b.add_trustlet(&plan, t.finish().unwrap(), TrustletOptions::default())
            .unwrap();
        plans.push(plan);
    }
    b.grant_os_peripheral(PeriphGrant {
        base: map::TIMER_MMIO_BASE,
        size: map::PERIPH_MMIO_SIZE,
        perms: Perms::RW,
    });
    let mut os = b.begin_os();
    build_scheduler_os(
        &mut os,
        &SchedulerConfig {
            timer_period: 400,
            tasks: plans
                .iter()
                .map(|p| ScheduledTask {
                    name: p.name.clone(),
                    entry: p.continue_entry(),
                })
                .collect(),
        },
    );
    let os_img = os.finish().unwrap();
    b.set_os(os_img, SCHED_IDT);
    b.build().expect("preemptive_os workload builds")
}

/// An OS looping untrusted-IPC `call()` jumps into a trustlet message
/// queue (Section 4.2.1 shape). Once the 8-slot queue fills the handler
/// takes its graceful full-queue return path; the control transfer —
/// the part the caches must handle — repeats forever.
fn trusted_ipc(level: ObsLevel) -> Platform {
    let mut b = PlatformBuilder::new();
    b.telemetry(level);
    let plan = b.plan_trustlet("server", 0x300, 0x100, 0x100);
    let queue_base = plan.data_base;
    let mut t = plan.begin_program();
    t.asm.label("main");
    t.asm.halt();
    trustlite_os::trustlet_lib::emit_call_queue_handler(&mut t.asm, &plan, queue_base, 8);
    b.add_trustlet(&plan, t.finish().unwrap(), TrustletOptions::default())
        .unwrap();

    let mut os = b.begin_os();
    let stack_top = os.stack_top;
    {
        let a = &mut os.asm;
        a.label("main");
        a.li(Reg::Sp, stack_top);
        // Re-arm the argument registers every iteration: the callee is
        // free to clobber them before jumping back to the continuation.
        a.label("again");
        a.li(Reg::R0, trustlite::ipc::msg_type::DATA);
        a.li(Reg::R1, 0x1234);
        a.la(Reg::R2, "continuation");
        a.li(Reg::R5, plan.call_entry());
        a.jr(Reg::R5);
        a.label("continuation");
        a.jmp("again");
    }
    let os_img = os.finish().unwrap();
    b.set_os(os_img, &[]);
    b.build().expect("trusted_ipc workload builds")
}
