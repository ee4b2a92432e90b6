//! The three workloads, each driven only through the simulator's public
//! calls, one repetition at a time.
//!
//! A repetition is the unit every run repeats for its time budget: set
//! up (timed as `setup_s`), run a fixed amount of simulated work (timed
//! on the host's wall and CPU clocks), and read back the outputs that
//! must match the pinned values.

use std::time::Instant;

use trustlite::attest::{self, Challenge};
use trustlite::{ObsLevel, Platform};
use trustlite_bench::state_digest;
use trustlite_bench::throughput::build_workload;
use trustlite_bench::timing::{process_cpu_ns, thread_cpu_ns};
use trustlite_chaos::ChaosConfig;
use trustlite_cpu::RunExit;
use trustlite_crypto::sha256;
use trustlite_fleet::{CampaignConfig, Fleet, FleetConfig, TraceLevel};
use trustlite_obs::SpanKind;

use crate::trace::{Span, Tracer};

/// A single device running one guest as a series of fixed quanta. After
/// each quantum the benchmark, acting as the device's remote verifier,
/// challenges it once (`attest::respond` + `attest::verify_detailed`).
pub struct Single {
    pub guest: &'static str,
    pub level: ObsLevel,
    pub quantum: u64,
    pub quanta: u64,
}

/// `kernel`: the 27-op straight-line `checksum` loop at capture Off.
pub const KERNEL: Single = Single {
    guest: "checksum",
    level: ObsLevel::Off,
    quantum: 100_000,
    quanta: 100,
};

/// `preempt`: three trustlets preempted every 400 cycles at capture Full.
pub const PREEMPT: Single = Single {
    guest: "preemptive_os",
    level: ObsLevel::Full,
    quantum: 100_000,
    quanta: 10,
};

/// `fleet`: 64 `quickstart` devices on 2 workers, challenged every round,
/// with fixed-seed chaos at 250‰ and an A/B update campaign.
pub const FLEET_DEVICES: usize = 64;
pub const FLEET_WORKERS: usize = 2;
pub const FLEET_QUANTUM: u64 = 20_000;
pub const FLEET_ROUNDS: u64 = 12;
pub const FLEET_GUEST: &str = "quickstart";
pub const FLEET_LEVEL: ObsLevel = ObsLevel::Metrics;
/// The fault schedule's own seed; the benchmark seed is the fleet seed
/// that device identities, nonces and fault draws are mixed with.
const CHAOS_SEED: u64 = 0xCA05_5EED;
const FAULT_RATE_PM: u64 = 250;

/// Deterministic outputs of one repetition, as `(name, value)` pairs in
/// a fixed order. Every repetition must reproduce the pinned values.
pub type Outputs = Vec<(&'static str, String)>;

/// Run-level counts of one repetition.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub devices: u64,
    pub instret: u64,
    pub cycles: u64,
    pub attest_ok: u64,
    pub attest_fail: u64,
    pub resident_growth_bytes: u64,
    pub code_cache_bytes: u64,
}

/// Counters one device's engine, EA-MPU and telemetry layers expose,
/// read as deltas over a run. `None` marks a source the device's capture
/// level does not record.
#[derive(Debug, Clone, Default)]
pub struct DeviceCounts {
    pub instret: u64,
    pub block_hits: u64,
    pub block_misses: u64,
    pub block_flushes: u64,
    pub block_instret: u64,
    pub predecode_hits: u64,
    pub predecode_misses: u64,
    pub mpu_checks: u64,
    pub mpu_denials: u64,
    /// `(count, summed cycles)` of exception entries.
    pub exc_entry: (u64, u64),
    /// `(count, summed cycles)` of exception returns; `None` below
    /// capture Metrics, where returns are not counted.
    pub exc_exit: Option<(u64, u64)>,
    /// Telemetry events emitted (retained plus dropped by the ring).
    pub events: u64,
}

pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    /// Host CPU seconds of the run phase, all threads summed.
    pub cpu_s: f64,
    /// Threads that generated the load.
    pub threads: usize,
    pub resident_kib_per_device: f64,
    pub out: Outputs,
    /// Invariants the outputs broke (empty when they hold).
    pub broken: Vec<String>,
    pub counts: Counts,
    /// The device's layer counters (single-device workloads; a fleet's
    /// come from [`fleet_probe`]).
    pub device: Option<DeviceCounts>,
    /// The repetition's root span (traced repetitions only).
    pub root: Option<usize>,
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The single device's identity, derived from the benchmark seed.
fn identity(seed: u64) -> (u32, u64, [u8; 32]) {
    let mut blob = b"perfbench-key".to_vec();
    blob.extend_from_slice(&seed.to_le_bytes());
    (
        splitmix(seed) as u32,
        splitmix(seed ^ 0x5eed),
        sha256(&blob),
    )
}

fn nonce(seed: u64, quantum: u64) -> Challenge {
    let mut n = [0u8; 16];
    n[..8].copy_from_slice(&splitmix(seed ^ 0x6e6f_6e63_6500).to_le_bytes());
    n[8..].copy_from_slice(&splitmix(quantum).to_le_bytes());
    Challenge { nonce: n }
}

fn hex(d: &[u8]) -> String {
    d.iter().map(|b| format!("{b:02x}")).collect()
}

/// The verifier's reference measurements (trustlet-table order), taken
/// once per process from a freshly built image.
pub fn enrolment(guest: &str, level: ObsLevel) -> Vec<[u8; 32]> {
    let mut p = build_workload(guest, level);
    let mut names: Vec<(u32, String)> = p
        .plans
        .iter()
        .map(|(n, plan)| (plan.tt_index, n.clone()))
        .collect();
    names.sort();
    names
        .into_iter()
        .map(|(_, n)| p.measurement(&n).expect("measurement readable"))
        .collect()
}

/// Builds, forks and diverges one device (the single-device set-up, and
/// the fleet's per-device boot path replayed outside the engine).
fn boot_device(tr: &mut Tracer, guest: &str, level: ObsLevel, seed: u64) -> Platform {
    let (id, rng, key) = identity(seed);
    let master = tr.span("core.build", || build_workload(guest, level));
    let mut p = tr.span("core.fork", || master.fork()).expect("fork");
    tr.span("core.diverge", || p.diverge(id, rng, key))
        .expect("diverge");
    p
}

/// One attestation round trip; true when the verifier accepts.
fn attest_once(tr: &mut Tracer, p: &mut Platform, seed: u64, q: u64, exp: &[[u8; 32]]) -> bool {
    let (_, _, key) = identity(seed);
    let ch = nonce(seed, q);
    let resp = tr.span("core.respond", || attest::respond(p, &ch));
    tr.span("core.verify", || {
        resp.is_ok_and(|r| attest::verify_detailed(&key, &ch, &r, exp).is_ok())
    })
}

/// Layer counters of a device at one instant, for deltas over a run.
struct Mark {
    instret: u64,
    cycles: u64,
    resident: u64,
    block: trustlite_cpu::BlockStats,
    predecode: trustlite_cpu::PredecodeStats,
    checks: u64,
    denials: u64,
    excs: usize,
}

impl Mark {
    fn of(p: &Platform) -> Mark {
        let m = &p.machine;
        Mark {
            instret: m.instret,
            cycles: m.cycles,
            resident: p.resident_bytes(),
            block: m.sys.block_stats(),
            predecode: m.sys.predecode_stats(),
            checks: m.sys.mpu.check_count(),
            denials: m.sys.mpu.deny_count(),
            excs: m.exc_log.len(),
        }
    }

    /// The device's counters since this mark; `report` is the metrics
    /// report taken at the end of the run.
    fn since(&self, p: &Platform, report: &trustlite_obs::MetricsReport) -> DeviceCounts {
        let m = &p.machine;
        let (b, pd) = (m.sys.block_stats(), m.sys.predecode_stats());
        let excs = &m.exc_log[self.excs..];
        let ring = &m.sys.obs.ring;
        DeviceCounts {
            instret: m.instret - self.instret,
            block_hits: b.hits - self.block.hits,
            block_misses: b.misses - self.block.misses,
            block_flushes: b.flushes - self.block.flushes,
            block_instret: b.instret - self.block.instret,
            predecode_hits: pd.hits - self.predecode.hits,
            predecode_misses: pd.misses - self.predecode.misses,
            mpu_checks: m.sys.mpu.check_count() - self.checks,
            mpu_denials: m.sys.mpu.deny_count() - self.denials,
            exc_entry: (excs.len() as u64, excs.iter().map(|e| e.entry_cycles).sum()),
            exc_exit: (m.sys.obs.level() >= ObsLevel::Metrics).then(|| {
                report
                    .histograms
                    .get("exc.exit_cycles")
                    .map_or((0, 0), |h| (h.count, h.sum))
            }),
            events: ring.len() as u64 + ring.dropped(),
        }
    }
}

/// Runs `quanta` quanta of `quantum` steps, attesting the device after
/// each one. Returns (accepted, rejected) attestations.
fn drive(
    tr: &mut Tracer,
    p: &mut Platform,
    quanta: u64,
    quantum: u64,
    seed: u64,
    exp: &[[u8; 32]],
    broken: &mut Vec<String>,
) -> (u64, u64) {
    let (mut ok, mut fail) = (0, 0);
    for q in 0..quanta {
        let exit = tr.span("cpu.run", || p.run(quantum));
        if exit != RunExit::StepLimit {
            broken.push(format!("quantum {q} ended with {exit:?}"));
        }
        let v = tr.open("verify");
        if attest_once(tr, p, seed, q, exp) {
            ok += 1;
        } else {
            fail += 1;
        }
        tr.close(v);
    }
    (ok, fail)
}

pub fn single_rep(w: &Single, seed: u64, exp: &[[u8; 32]], tr: &mut Tracer) -> Rep {
    let root = tr.open("rep");
    let t_setup = Instant::now();
    let boot = tr.open("boot");
    let mut p = boot_device(tr, w.guest, w.level, seed);
    tr.close(boot);
    let setup_s = t_setup.elapsed().as_secs_f64();

    let mark = Mark::of(&p);
    let mut broken = Vec::new();
    let run = tr.open("run");
    let (w0, c0) = (Instant::now(), thread_cpu_ns());
    let (ok, fail) = drive(tr, &mut p, w.quanta, w.quantum, seed, exp, &mut broken);
    let m = tr.open("merge");
    let digest = tr.span("digest", || state_digest(&mut p));
    let report = tr.span("obs.metrics_report", || p.machine.metrics_report());
    tr.close(m);
    let cpu_s = (thread_cpu_ns() - c0) as f64 / 1e9;
    let wall_s = w0.elapsed().as_secs_f64();
    tr.close(run);
    tr.close(root);

    let dev = mark.since(&p, &report);
    let cycles = p.machine.cycles - mark.cycles;
    if fail > 0 {
        broken.push(format!("{fail} attestations of an honest device failed"));
    }
    if dev.instret == 0 || dev.instret > w.quanta * w.quantum {
        broken.push(format!("instret {} outside (0, steps]", dev.instret));
    }
    let counts = Counts {
        devices: 1,
        instret: dev.instret,
        cycles,
        attest_ok: ok,
        attest_fail: fail,
        resident_growth_bytes: p.resident_bytes().saturating_sub(mark.resident),
        code_cache_bytes: p.code_cache_bytes(),
    };
    let out = vec![
        ("instret", dev.instret.to_string()),
        ("cycles", cycles.to_string()),
        ("digest", hex(&digest)),
        ("attest_ok", ok.to_string()),
        ("attest_fail", fail.to_string()),
        ("exc_taken", dev.exc_entry.0.to_string()),
        ("exc_entry_cycles", dev.exc_entry.1.to_string()),
    ];
    if tr.on() {
        // A warm reset re-runs the Secure Loader; timed after the
        // repetition so it never enters the run phase.
        let probe = tr.open("probe");
        tr.span("core.reset", || p.reset()).expect("warm reset");
        tr.close(probe);
    }
    Rep {
        setup_s,
        wall_s,
        cpu_s,
        threads: 1,
        resident_kib_per_device: (p.resident_bytes() + p.code_cache_bytes()) as f64 / 1024.0,
        out,
        broken,
        counts,
        device: Some(dev),
        root: tr.on().then_some(root),
    }
}

fn fleet_config(seed: u64, trace: TraceLevel) -> FleetConfig {
    FleetConfig {
        devices: FLEET_DEVICES,
        workers: FLEET_WORKERS,
        quantum: FLEET_QUANTUM,
        rounds: FLEET_ROUNDS,
        seed,
        workload: FLEET_GUEST.to_string(),
        level: FLEET_LEVEL,
        attest_every: 1,
        chaos: ChaosConfig {
            seed: CHAOS_SEED,
            fault_rate_pm: FAULT_RATE_PM,
            // No run-long malicious devices: they are quarantined within
            // a few rounds and then sit idle, so their seed-dependent
            // number would change how much work a repetition does.
            malicious_pm: 0,
        },
        trace,
        campaign: Some(CampaignConfig::default()),
        ..FleetConfig::default()
    }
}

pub fn fleet_rep(seed: u64, tr: &mut Tracer) -> Rep {
    let level = if tr.on() {
        TraceLevel::Spans
    } else {
        TraceLevel::Off
    };
    let root = tr.open("rep");
    let t_setup = Instant::now();
    let boot = tr.open("boot");
    let boot_t0 = tr.now_ns();
    let fleet = Fleet::boot(fleet_config(seed, level)).expect("fleet boots");
    tr.close(boot);
    let setup_s = t_setup.elapsed().as_secs_f64();
    let resident0: u64 = fleet
        .devices
        .iter()
        .map(|d| d.platform.resident_bytes())
        .sum();

    let run = tr.open("run");
    let run_t0 = tr.now_ns();
    let (w0, c0) = (Instant::now(), process_cpu_ns());
    let report = fleet.run();
    let cpu_s = (process_cpu_ns() - c0) as f64 / 1e9;
    let wall_s = w0.elapsed().as_secs_f64();
    tr.close(run);
    tr.close(root);

    if tr.on() {
        // The engine's host-clock phase spans: `fork` on the boot clock,
        // the rest on the run clock. Both clocks start a little after
        // the enclosing benchmark span does, so mapping their zero onto
        // its start can only move a phase earlier, never past the end.
        for s in report.spans.iter().filter(|s| s.device.is_none()) {
            let (name, base, parent) = match s.kind {
                SpanKind::Fork => ("fork", boot_t0, boot),
                SpanKind::Execute => ("execute", run_t0, run),
                SpanKind::Verify => ("verify", run_t0, run),
                SpanKind::Merge => ("merge", run_t0, run),
                _ => continue,
            };
            let cap = tr.spans[parent].end_ns;
            tr.record(Span {
                name,
                start_ns: (base + s.start_cycle).min(cap),
                end_ns: (base + s.end_cycle).min(cap),
                parent: Some(parent),
                shard: (s.kind == SpanKind::Execute).then_some(s.shard),
                round: (s.kind != SpanKind::Fork).then_some(s.round),
            });
        }
    }

    let m = &report.merged;
    let c = |k: &str| m.counters.get(k).copied().unwrap_or(0);
    let crash_resets = c("chaos.crash_resets");
    let loader_runs = c("loader.runs");
    let reboots = c("campaign.reboots");
    let n = report.devices as u64;
    let mut broken = Vec::new();
    if loader_runs != 1 + reboots + crash_resets {
        broken.push(format!(
            "loader.runs {loader_runs} != 1 + campaign.reboots {reboots} + chaos.crash_resets {crash_resets}"
        ));
    }
    let resolved = report.campaign_completed()
        + report.campaign_rolled_back()
        + report.campaign_quarantined()
        + report.campaign_skipped();
    if resolved != report.devices {
        broken.push(format!("campaign accounts for {resolved} of {n} devices"));
    }
    if report.attest_ok + report.attest_fail == 0 {
        broken.push("no attestation was judged".to_string());
    }
    if report.total_instret == 0 || report.total_instret > n * FLEET_ROUNDS * FLEET_QUANTUM {
        broken.push(format!(
            "instret {} outside (0, steps]",
            report.total_instret
        ));
    }
    let counts = Counts {
        devices: n,
        instret: report.total_instret,
        cycles: report.total_cycles,
        attest_ok: report.attest_ok,
        attest_fail: report.attest_fail,
        resident_growth_bytes: report.resident_bytes.saturating_sub(resident0),
        code_cache_bytes: report.code_cache_bytes,
    };
    let out = vec![
        ("instret", report.total_instret.to_string()),
        ("cycles", report.total_cycles.to_string()),
        ("digest", report.digest_hex()),
        ("attest_ok", report.attest_ok.to_string()),
        ("attest_fail", report.attest_fail.to_string()),
        (
            "campaign_completed",
            report.campaign_completed().to_string(),
        ),
        (
            "campaign_rolled_back",
            report.campaign_rolled_back().to_string(),
        ),
        ("crash_resets", crash_resets.to_string()),
        ("loader_runs", loader_runs.to_string()),
    ];
    Rep {
        setup_s,
        wall_s,
        cpu_s,
        threads: report.workers,
        resident_kib_per_device: (report.resident_bytes + report.code_cache_bytes) as f64
            / 1024.0
            / n as f64,
        out,
        broken,
        counts,
        device: None,
        root: tr.on().then_some(root),
    }
}

/// Replays one honest fleet device outside the engine, which times none
/// of its calls and merges only metrics: build, fork, diverge, then per
/// round one quantum and one attestation, then digest, metrics report
/// and a warm reset. Returns the device's layer counters and the
/// invariants it broke.
pub fn fleet_probe(seed: u64, exp: &[[u8; 32]], tr: &mut Tracer) -> (DeviceCounts, Vec<String>) {
    let probe = tr.open("probe");
    let mut p = boot_device(tr, FLEET_GUEST, FLEET_LEVEL, seed);
    let mark = Mark::of(&p);
    let mut broken = Vec::new();
    let (_, fail) = drive(
        tr,
        &mut p,
        FLEET_ROUNDS,
        FLEET_QUANTUM,
        seed,
        exp,
        &mut broken,
    );
    if fail > 0 {
        broken.push(format!(
            "{fail} attestations of the honest probe device failed"
        ));
    }
    tr.span("digest", || state_digest(&mut p));
    let report = tr.span("obs.metrics_report", || p.machine.metrics_report());
    let dev = mark.since(&p, &report);
    if let Err(e) = tr.span("core.reset", || p.reset()) {
        broken.push(format!("warm reset failed: {e}"));
    }
    tr.close(probe);
    (dev, broken)
}
