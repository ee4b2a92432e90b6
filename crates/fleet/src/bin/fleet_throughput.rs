//! Experiment EFLT — fleet throughput: devices x workers sweep.
//!
//! For a fixed fleet (devices, rounds, quantum, seed, workload) the same
//! run is repeated across worker counts. The harness asserts the
//! aggregate digest — every device's final architectural state plus the
//! merged telemetry — is bit-identical for every worker count, then
//! reports aggregate simulated MIPS per configuration. It also measures
//! what copy-on-write buys at fork time (COW fork vs. the dense deep-copy
//! fork, gated at >= 10x; N full Secure Loader boots are reported
//! alongside) and verifies that a 1000-device fleet boots with
//! exactly one Secure Loader execution, visible in the merged metrics.
//!
//! Wall-clock scaling asserts are gated on the host actually having the
//! cores: on a box with fewer than 8 available CPUs the ≥4x figure is
//! physically impossible and the gate is skipped (with a loud note in
//! the JSON) rather than faked.
//!
//! Run: `cargo run -p trustlite-fleet --release --bin fleet_throughput`
//! (pass `-- --smoke` for a seconds-long CI-sized run).
//!
//! Writes `BENCH_fleet_throughput.json` into the current directory.

use std::fmt::Write as _;
use std::time::Instant;

use trustlite_bench::timing::process_cpu_ns;
use trustlite_chaos::ChaosConfig;
use trustlite_fleet::{Fleet, FleetConfig};

/// Worker counts swept (the acceptance gate compares the last to the
/// first).
const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

struct SweepRun {
    workers: usize,
    wall_ms: f64,
    /// Process CPU time over the run, all worker threads summed (may
    /// legitimately exceed `wall_ms` by up to the worker count).
    cpu_ms: f64,
    mips: f64,
    digest_hex: String,
    total_instret: u64,
}

fn run_once(base: &FleetConfig, workers: usize) -> SweepRun {
    let cfg = FleetConfig {
        workers,
        ..base.clone()
    };
    let fleet = Fleet::boot(cfg).expect("fleet boots");
    let t0 = Instant::now();
    let c0 = process_cpu_ns();
    let report = fleet.run();
    let wall = t0.elapsed().as_secs_f64();
    let cpu_ms = (process_cpu_ns() - c0) as f64 / 1e6;
    SweepRun {
        workers,
        wall_ms: wall * 1e3,
        cpu_ms,
        mips: report.total_instret as f64 / wall / 1e6,
        digest_hex: report.digest_hex(),
        total_instret: report.total_instret,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // CI smoke runs pass --gate-fork to enforce the COW-vs-dense-fork
    // >=10x gate (always measured at 64 devices) even in smoke mode.
    let gate_fork = std::env::args().any(|a| a == "--gate-fork");
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let base = FleetConfig {
        devices: if smoke { 8 } else { 64 },
        rounds: if smoke { 2 } else { 8 },
        quantum: if smoke { 2_000 } else { 50_000 },
        attest_every: 4,
        ..FleetConfig::default()
    };

    println!(
        "Fleet throughput: {} devices, {} rounds x {} steps, workload {} \
         (smoke: {smoke}, host parallelism: {parallelism})",
        base.devices, base.rounds, base.quantum, base.workload
    );
    println!(
        "{:<9}{:>12}{:>16}{:>10}",
        "workers", "wall ms", "aggregate MIPS", "speedup"
    );

    let mut runs: Vec<SweepRun> = Vec::new();
    for &workers in &WORKER_SWEEP {
        let run = run_once(&base, workers);
        let speedup = run.mips / runs.first().map_or(run.mips, |r| r.mips);
        println!(
            "{:<9}{:>12.1}{:>16.1}{:>9.2}x",
            run.workers, run.wall_ms, run.mips, speedup
        );
        runs.push(run);
    }

    // Hard invariant, any host: sharding must not change the simulation.
    let reference = &runs[0];
    for run in &runs[1..] {
        assert_eq!(
            run.digest_hex, reference.digest_hex,
            "{} workers diverged from 1 worker — sharding changed the simulation",
            run.workers
        );
        assert_eq!(run.total_instret, reference.total_instret);
    }

    let speedup_8v1 = runs.last().unwrap().mips / runs[0].mips;
    // An 8-worker run slower than 1 worker is not a real engine
    // regression — it means the host could not actually run the workers
    // in parallel (oversubscription, cgroup throttling, noisy
    // neighbours). Flag the measurement instead of reporting a fake
    // slowdown.
    let noisy = speedup_8v1 < 1.0;
    if noisy {
        eprintln!(
            "note: speedup_8v1 = {speedup_8v1:.2}x < 1.0 — the host could not \
             parallelize (marked noisy, not an engine regression)"
        );
    }
    // On a single-CPU host any speedup_8v1 figure is thread-scheduling
    // noise either way: mark the row informational-only so downstream
    // readers don't treat it as a scaling measurement.
    let speedup_informational = parallelism == 1;
    if speedup_informational {
        eprintln!(
            "note: available_parallelism == 1 — speedup_8v1 is informational \
             only (in-process threading cannot demonstrate scaling here)"
        );
    }
    // The wall-clock gate needs the silicon: with < 8 usable cores the
    // target is unreachable no matter how good the engine is, so the
    // gate is recorded as skipped instead of asserted against physics.
    let gate_enforced = !smoke && parallelism >= 8;
    if gate_enforced {
        assert!(
            speedup_8v1 >= 4.0,
            "8 workers must deliver >= 4x aggregate MIPS over 1 (got {speedup_8v1:.2}x)"
        );
    } else if !smoke {
        eprintln!(
            "note: host exposes only {parallelism} CPU(s); the >=4x @ 8 workers \
             gate is recorded but not enforced here (CI runs it on multicore)"
        );
    }

    // Zero-cost-when-off: the chaos layer compiled in but with both
    // rates at zero must not perturb an honest run — byte-identical
    // digest, whatever the chaos seed says.
    let chaos_off_digest = run_once(
        &FleetConfig {
            chaos: ChaosConfig {
                seed: 0xdead_beef,
                fault_rate_pm: 0,
                malicious_pm: 0,
            },
            ..base.clone()
        },
        1,
    )
    .digest_hex;
    assert_eq!(
        chaos_off_digest, reference.digest_hex,
        "disabled fault injection must leave honest runs byte-identical"
    );
    println!("chaos off: digest identical to the honest baseline");

    // Fork-boot scaling sweep: with sparse COW memory a fork is
    // O(resident pages) Arc bumps, so ms-per-device should stay flat as
    // the fleet grows. Each row retains the whole fleet while measured
    // (real footprint), and records the host-side residency the sparse
    // store achieves. Single-threaded, so meaningful on any host.
    let sweep_sizes: &[usize] = if smoke {
        &[8, 16, 32]
    } else {
        &[64, 256, 1024]
    };
    println!(
        "{:<9}{:>14}{:>15}{:>15}{:>18}{:>15}",
        "devices", "fork-boot ms", "ms/device", "fork us/dev", "resident KiB/dev", "code B/dev"
    );
    let mut sweep_rows = String::new();
    let mut sweep_fork_us: Vec<f64> = Vec::new();
    for &devices in sweep_sizes {
        let t0 = Instant::now();
        let fleet = Fleet::boot(FleetConfig {
            devices,
            ..base.clone()
        })
        .expect("fork boot");
        let boot_ms = t0.elapsed().as_secs_f64() * 1e3;
        let fork_us = fleet.fork_us_per_device();
        let resident: u64 = fleet
            .devices
            .iter()
            .map(|d| d.platform.resident_bytes())
            .sum();
        let resident_kib_per_dev = resident as f64 / 1024.0 / devices as f64;
        // Arc-shared chunked code caches: retained-but-idle forks amortize
        // to near zero physical bytes per device.
        let code: u64 = fleet
            .devices
            .iter()
            .map(|d| d.platform.code_cache_bytes())
            .sum();
        let code_per_dev = code as f64 / devices as f64;
        drop(fleet);
        sweep_fork_us.push(fork_us);
        println!(
            "{devices:<9}{boot_ms:>14.1}{:>15.3}{fork_us:>15.1}{resident_kib_per_dev:>18.1}\
             {code_per_dev:>15.0}",
            boot_ms / devices as f64
        );
        if !sweep_rows.is_empty() {
            sweep_rows.push_str(",\n");
        }
        write!(
            sweep_rows,
            "    {{\"devices\": {devices}, \"fork_boot_ms\": {boot_ms:.2}, \
             \"ms_per_device\": {:.4}, \"fork_us_per_device\": {fork_us:.1}, \
             \"resident_bytes_per_device\": {:.0}, \
             \"code_cache_bytes_per_device\": {code_per_dev:.0}}}",
            boot_ms / devices as f64,
            resident as f64 / devices as f64
        )
        .unwrap();
    }

    // Flat-fork gate: a fork is O(resident chunks) Arc bumps, so the
    // per-device cost must not grow with the fleet — the largest sweep
    // size may cost at most 2x the smallest. Timing at smoke sizes
    // (tens of devices, microsecond totals) is dominated by scheduler
    // noise, so in smoke mode the ratio is recorded but not asserted.
    let fork_flat_ratio = sweep_fork_us.last().unwrap() / sweep_fork_us.first().unwrap().max(0.1);
    let flat_gate_enforced = !smoke;
    println!(
        "flat-fork: {:.1} us/dev at {} devices vs {:.1} at {} ({fork_flat_ratio:.2}x)",
        sweep_fork_us.last().unwrap(),
        sweep_sizes.last().unwrap(),
        sweep_fork_us.first().unwrap(),
        sweep_sizes.first().unwrap(),
    );
    if flat_gate_enforced {
        assert!(
            fork_flat_ratio <= 2.0,
            "fork cost must stay flat as the fleet grows: {:.1} us/dev at {} devices \
             vs {:.1} at {} ({fork_flat_ratio:.2}x > 2x)",
            sweep_fork_us.last().unwrap(),
            sweep_sizes.last().unwrap(),
            sweep_fork_us.first().unwrap(),
            sweep_sizes.first().unwrap(),
        );
    }

    // What copy-on-write forking buys, always at 64 devices (the gated
    // configuration): the sparse COW fork against the dense deep-copy
    // fork it replaced, per device, both retaining the whole fleet. The
    // gate is on this ratio. N full Secure Loader boots are measured too,
    // but only reported: with the loader reading just the firmware table
    // a full boot is tens of microseconds, so that ratio tracks loader
    // cost, not fork cost.
    let fork_devices = 64;
    let fork_cfg = FleetConfig {
        devices: fork_devices,
        ..base.clone()
    };
    let t0 = Instant::now();
    let fleet = Fleet::boot(fork_cfg.clone()).expect("fork boot");
    let fork_ms = t0.elapsed().as_secs_f64() * 1e3;
    let fork_us_per_device = fleet.fork_us_per_device();
    drop(fleet);
    let dense = Fleet::boot_with(fork_cfg, |p| p.set_dense_memory(true)).expect("dense fork boot");
    let dense_fork_us_per_device = dense.fork_us_per_device();
    drop(dense);
    let t0 = Instant::now();
    let mut full_boots = Vec::with_capacity(fork_devices);
    for _ in 0..fork_devices {
        full_boots.push(trustlite_bench::throughput::build_workload(
            &base.workload,
            base.level,
        ));
    }
    let full_ms = t0.elapsed().as_secs_f64() * 1e3;
    drop(full_boots);
    let cow_speedup = dense_fork_us_per_device / fork_us_per_device.max(0.001);
    let full_boot_speedup = full_ms / fork_ms;
    println!(
        "fork {fork_devices} devices: COW {fork_us_per_device:.1} us/dev vs dense deep copy \
         {dense_fork_us_per_device:.1} us/dev ({cow_speedup:.1}x)"
    );
    println!(
        "boot {fork_devices} devices: fork {fork_ms:.1} ms vs full {full_ms:.1} ms \
         ({full_boot_speedup:.1}x, informational)"
    );
    if !smoke || gate_fork {
        assert!(
            cow_speedup >= 10.0,
            "COW fork must be >= 10x cheaper per device than the dense deep-copy \
             fork at 64 devices (got {cow_speedup:.2}x)"
        );
    }

    // 1000-device fleet boots with exactly one Secure Loader execution,
    // proven by the loader-phase counters in the merged report.
    let loader_devices = if smoke { 32 } else { 1000 };
    let fleet = Fleet::boot(FleetConfig {
        devices: loader_devices,
        workers: parallelism.min(4),
        rounds: 1,
        quantum: 500,
        ..base.clone()
    })
    .expect("1000-device boot");
    let report = fleet.run();
    let loader_runs = report
        .merged
        .counters
        .get("loader.runs")
        .copied()
        .unwrap_or(0);
    let reset_ops = report
        .merged
        .counters
        .get("loader.reset.ops")
        .copied()
        .unwrap_or(0);
    println!(
        "{loader_devices}-device fleet: loader.runs = {loader_runs} in merged metrics \
         ({} devices reporting)",
        report.devices
    );
    assert_eq!(
        loader_runs, 1,
        "fork boot must run the Secure Loader exactly once per image"
    );

    let mut rows = String::new();
    for run in &runs {
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        write!(
            rows,
            "    {{\"workers\": {}, \"wall_ms\": {:.2}, \"cpu_ms\": {:.2}, \
             \"aggregate_mips\": {:.2}, \
             \"total_instret\": {}, \"digest\": \"{}\"}}",
            run.workers, run.wall_ms, run.cpu_ms, run.mips, run.total_instret, run.digest_hex
        )
        .unwrap();
    }
    let json = format!(
        "{{\n  \"experiment\": \"fleet_throughput\",\n  \"smoke\": {smoke},\n  \
         \"devices\": {},\n  \"rounds\": {},\n  \"quantum\": {},\n  \
         \"workload\": \"{}\",\n  \"available_parallelism\": {parallelism},\n  \
         \"speedup_8v1\": {speedup_8v1:.3},\n  \"speedup_gate_enforced\": {gate_enforced},\n  \
         \"speedup_8v1_informational_only\": {speedup_informational},\n  \
         \"noisy\": {noisy},\n  \
         \"digests_identical\": true,\n  \"chaos_off_identical\": true,\n  \
         \"fork_boot\": {{\"devices\": {fork_devices}, \"fork_ms\": {fork_ms:.2}, \
         \"fork_us_per_device\": {fork_us_per_device:.1}, \
         \"dense_fork_us_per_device\": {dense_fork_us_per_device:.1}, \
         \"speedup\": {cow_speedup:.2}, \"full_ms\": {full_ms:.2}, \
         \"full_boot_speedup_informational\": {full_boot_speedup:.2}}},\n  \
         \"fork_flat_ratio\": {fork_flat_ratio:.3},\n  \
         \"fork_flat_gate_enforced\": {flat_gate_enforced},\n  \
         \"fork_sweep\": [\n{sweep_rows}\n  ],\n  \
         \"loader_check\": {{\"devices\": {loader_devices}, \"loader_runs\": {loader_runs}, \
         \"loader_reset_ops\": {reset_ops}}},\n  \
         \"runs\": [\n{rows}\n  ]\n}}\n",
        base.devices, base.rounds, base.quantum, base.workload
    );
    std::fs::write("BENCH_fleet_throughput.json", &json)
        .expect("write BENCH_fleet_throughput.json");
    println!("wrote BENCH_fleet_throughput.json");
}
