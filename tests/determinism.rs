//! Whole-simulation determinism: identical seeds reproduce bit-identical
//! runs (cycles, instruction counts, memory, tokens). This property is
//! what makes the cycle measurements in EXPERIMENTS.md stable and the
//! test suite meaningful.

use trustlite_bench::{build_handshake_platform, run_handshake, state_digest};
use trustlite_cpu::Engine;

#[test]
fn identical_seeds_replay_identically() {
    let run = |seed: u64| {
        let mut hp = build_handshake_platform(seed).expect("builds");
        let r = run_handshake(&mut hp).expect("runs");
        (r, state_digest(&mut hp.platform))
    };
    let (r1, d1) = run(777);
    let (r2, d2) = run(777);
    assert_eq!(r1, r2, "measured results replay");
    assert_eq!(d1, d2, "machine state replays bit-identically");
}

#[test]
fn different_seeds_differ_only_in_nonces() {
    let run = |seed: u64| {
        let mut hp = build_handshake_platform(seed).expect("builds");
        run_handshake(&mut hp).expect("runs")
    };
    let r1 = run(1);
    let r2 = run(2);
    assert_ne!(r1.nonces, r2.nonces);
    assert_ne!(r1.token_a, r2.token_a);
    // The control flow (and therefore the cycle counts) is data-independent
    // of the nonce values.
    assert_eq!(r1.total_cycles, r2.total_cycles);
    assert_eq!(r1.attest_cycles, r2.attest_cycles);
}

#[test]
fn scheduling_workload_is_deterministic() {
    let run = || {
        let p = trustlite_bench::boot_platform_with(3, true);
        (
            p.report.mpu_writes,
            p.report.words_copied,
            p.report.estimated_cycles,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn fast_path_caches_are_architecturally_invisible() {
    // The predecode table, superblock trace cache, EA-MPU grant cache,
    // batched device ticks and bus lookup cache are pure accelerations:
    // running each macro workload on the interpreted path, the
    // predecode-only fast path and the superblock path must produce
    // bit-identical architectural state, cycle counts and instruction
    // counts. `Engine::Reference` must bypass the block table too.
    for workload in trustlite_bench::throughput::WORKLOADS {
        let run = |engine: Engine| {
            let mut p =
                trustlite_bench::throughput::build_workload(workload, trustlite::ObsLevel::Off);
            p.machine.sys.set_engine(engine);
            let _ = p.run(60_000);
            (p.machine.instret, p.machine.cycles, state_digest(&mut p))
        };
        let slow = run(Engine::Reference);
        let fast = run(Engine::Predecode);
        let block = run(Engine::Superblock);
        assert_eq!(
            (fast.0, fast.1),
            (slow.0, slow.1),
            "{workload}: predecode path changed the observable counters"
        );
        assert_eq!(
            fast.2, slow.2,
            "{workload}: predecode path changed architectural state"
        );
        assert_eq!(
            (block.0, block.1),
            (slow.0, slow.1),
            "{workload}: superblock path changed the observable counters"
        );
        assert_eq!(
            block.2, slow.2,
            "{workload}: superblock path changed architectural state"
        );
    }
}
